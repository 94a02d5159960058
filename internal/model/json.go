package model

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/jsonscan"
)

// WriteJSON serializes the system as indented JSON to w.
func (sys *System) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sys); err != nil {
		return fmt.Errorf("model: encoding system: %w", err)
	}
	return nil
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
