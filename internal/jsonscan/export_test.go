package jsonscan

// FastFloat is fastFloat, for the benchmark in package jsonscan_test (which
// can build the fleet file: internal/model imports this package).
var FastFloat = fastFloat
