package model

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/jsonscan"
)

// WriteJSON serializes the system as indented JSON to w: the bytes
// encoding/json's Encoder writes with SetIndent("", "  "), the trailing
// newline included, appended in one pass by indentWriter rather than
// marshalled and then re-indented, which took twice as long.
func (sys *System) WriteJSON(w io.Writer) error {
	iw := indentWriter{b: make([]byte, 0, sys.indentedSize())}
	iw.system(sys)
	if iw.err != nil {
		return fmt.Errorf("model: encoding system: %w", iw.err)
	}
	if _, err := w.Write(append(iw.b, '\n')); err != nil {
		return fmt.Errorf("model: encoding system: %w", err)
	}
	return nil
}

// indentedSize is a capacity for WriteJSON's buffer that the document rarely
// outgrows: a float line is at most 12 spaces of indent, 24 characters and
// ",\n".
func (sys *System) indentedSize() int {
	n := 64 + 40*len(sys.Bandwidth)*len(sys.Bandwidth)
	for k := range sys.Strings {
		n += 128
		for i := range sys.Strings[k].Apps {
			a := &sys.Strings[k].Apps[i]
			n += 128 + 40*(len(a.NominalTime)+len(a.NominalUtil))
		}
	}
	return n
}

// indentWriter appends a document in encoding/json's indented layout, two
// spaces a level: an element or field on its own line, "[]" for an empty
// array and null for a nil one. err is the first float JSON has no form for.
type indentWriter struct {
	b     []byte
	depth int
	err   error
}

func (w *indentWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

func (w *indentWriter) float(f float64) {
	var ok bool
	if w.b, ok = jsonscan.AppendFloat(w.b, f); !ok && w.err == nil {
		w.err = fmt.Errorf("unsupported value: %v", f)
	}
}

// object appends an object whose field names[f] is written by value(f).
func (w *indentWriter) object(names []string, value func(f int)) {
	w.b = append(w.b, '{')
	w.depth++
	for f, name := range names {
		if f > 0 {
			w.b = append(w.b, ',')
		}
		w.newline()
		w.b = append(append(append(w.b, '"'), name...), '"', ':', ' ')
		value(f)
	}
	w.depth--
	w.newline()
	w.b = append(w.b, '}')
}

// array appends n elements written by elem, or null when the slice is nil.
func (w *indentWriter) array(isNil bool, n int, elem func(i int)) {
	switch {
	case isNil:
		w.b = append(w.b, "null"...)
		return
	case n == 0:
		w.b = append(w.b, '[', ']')
		return
	}
	w.b = append(w.b, '[')
	w.depth++
	for i := 0; i < n; i++ {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.newline()
		elem(i)
	}
	w.depth--
	w.newline()
	w.b = append(w.b, ']')
}

func (w *indentWriter) floats(v []float64) {
	w.array(v == nil, len(v), func(i int) { w.float(v[i]) })
}

// system appends sys with the fields of System, AppString and Application in
// declaration order under their json tags (systemFields, stringFields,
// appFields).
func (w *indentWriter) system(sys *System) {
	w.object(systemFields, func(f int) {
		switch f {
		case 0:
			w.b = strconv.AppendInt(w.b, int64(sys.Machines), 10)
		case 1:
			w.array(sys.Bandwidth == nil, len(sys.Bandwidth), func(j int) { w.floats(sys.Bandwidth[j]) })
		case 2:
			w.array(sys.Strings == nil, len(sys.Strings), func(k int) { w.appString(&sys.Strings[k]) })
		}
	})
}

func (w *indentWriter) appString(s *AppString) {
	w.object(stringFields, func(f int) {
		switch f {
		case 0:
			w.b = strconv.AppendInt(w.b, int64(s.ID), 10)
		case 1:
			w.float(s.Worth)
		case 2:
			w.float(s.Period)
		case 3:
			w.float(s.MaxLatency)
		case 4:
			w.array(s.Apps == nil, len(s.Apps), func(i int) { w.application(&s.Apps[i]) })
		}
	})
}

func (w *indentWriter) application(a *Application) {
	w.object(appFields, func(f int) {
		switch f {
		case 0:
			w.floats(a.NominalTime)
		case 1:
			w.floats(a.NominalUtil)
		case 2:
			w.float(a.OutputKB)
		}
	})
}

// The system document's grammar: a table of field names per object (the json
// tags of System, AppString and Application) and, in value, where each goes.
var (
	systemFields = []string{"machines", "bandwidth", "strings"}
	stringFields = []string{"id", "worth", "period", "maxLatency", "apps"}
	appFields    = []string{"nominalTime", "nominalUtil", "outputKB"}
)

// systemReader is the one reader of a system document, indented (WriteJSON)
// or compact (the daemon's pinned catalog) alike. row collects one array of
// numbers at a time: each is stored at its exact length, none sized by a header.
type systemReader struct {
	jsonscan.Cursor
	row []float64
}

// object reads an object whose field names[f] goes to dst[f].
func (r *systemReader) object(names []string, dst ...any) error {
	return r.Object(names, false, func(f int) error { return r.value(dst[f]) })
}

// value reads what dst points to: a number or one of the four arrays, never
// null but for the "strings":null the writers emit for a system without any.
func (r *systemReader) value(dst any) error {
	switch p := dst.(type) {
	case *[]float64:
		r.row = r.row[:0]
		err := r.Array(func() error {
			r.row = append(r.row, 0)
			return r.Number(&r.row[len(r.row)-1])
		})
		*p = append(make([]float64, 0, len(r.row)), r.row...)
		return err
	case *[][]float64:
		*p = [][]float64{}
		return r.Array(func() error {
			*p = append(*p, nil)
			return r.value(&(*p)[len(*p)-1])
		})
	case *[]Application:
		*p = []Application{}
		return r.Array(func() error {
			*p = append(*p, Application{})
			a := &(*p)[len(*p)-1]
			return r.object(appFields, &a.NominalTime, &a.NominalUtil, &a.OutputKB)
		})
	case *[]AppString:
		if r.Null() {
			return nil
		}
		*p = []AppString{}
		return r.Array(func() error {
			*p = append(*p, AppString{})
			s := &(*p)[len(*p)-1]
			return r.object(stringFields, &s.ID, &s.Worth, &s.Period, &s.MaxLatency, &s.Apps)
		})
	}
	return r.Number(dst)
}

// ParseSystem parses and validates a system document. The grammar is strict:
// the fields of System, AppString and Application under exactly their names,
// in any order, each at most once; numbers only (integers written without
// fraction or exponent), every value bit for bit what encoding/json reads
// from the same bytes; nothing but whitespace after the document. A misspelt,
// case-variant, escaped or repeated name is refused with its byte offset
// rather than dropped.
func ParseSystem(data []byte) (*System, error) {
	r := systemReader{Cursor: jsonscan.Cursor{B: data}}
	sys := new(System)
	if err := r.End(r.object(systemFields, &sys.Machines, &sys.Bandwidth, &sys.Strings)); err != nil {
		return nil, fmt.Errorf("model: parsing system: %w", err)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// SaveFile writes the system to path as JSON.
func (sys *System) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	if err := sys.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads, parses and validates a system document from a file.
func LoadFile(path string) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return ParseSystem(data)
}
