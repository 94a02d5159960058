// Package repro is a from-scratch Go reproduction of Shestak, Chong,
// Maciejewski, Siegel, Benmohamed, Wang, and Daley, "Resource Allocation for
// Periodic Applications in a Shipboard Environment" (IPPS/IPDPS 2005): robust
// static allocation of continuously running application strings onto a
// heterogeneous machine suite under throughput and end-to-end latency
// constraints.
//
// The library lives in the internal packages (importable throughout this
// module):
//
//	internal/model        TSCE system model (machines, routes, strings)
//	internal/feasibility  two-stage feasibility analysis, equations (1)-(7)
//	internal/heuristics   IMR, MWF, TF, PSG, Seeded PSG
//	internal/genitor      GENITOR steady-state genetic search substrate
//	internal/workload     Section 6 / Table 1 scenario generator
//	internal/lp           Section 7 fractional-mapping upper-bound LPs
//	internal/simplex      two-phase revised simplex (sparse LU, partial pricing); dense reference
//	internal/transport    transportation plans for fractional transfers
//	internal/sim          discrete-event simulator of the shipboard runtime
//	internal/stats        Student-t confidence intervals
//	internal/dynamic      dynamic reallocation (migrate/evict repair, rebalance)
//	internal/pool         resource-pool generalization (footnote 1)
//	internal/workers      worker-goroutine fan-out for the parallel search
//	internal/experiments  regeneration harness for every table and figure:
//	                      one run loop, one study registry
//
// A mapping has one representation throughout: *feasibility.Allocation.
// String k is mapped iff alloc.Complete(k); heuristics return an allocation,
// the repair and degradation controllers take one, and the daemon serves one.
//
// Executables: cmd/shipsched (run heuristics on a scenario), cmd/lpbound
// (upper bounds), cmd/experiments (regenerate the paper's figures). Runnable
// walkthroughs are under examples/ (the DAG-of-applications extension of
// footnote 2 is examples/fusiondag/dag, that walkthrough's library, not a
// shipped package). The benchmarks in bench_test.go exercise one regeneration
// target per table and figure; see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package repro
