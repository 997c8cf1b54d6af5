package sweep

import (
	"bytes"
	"testing"
)

// FuzzStorePrefix fuzzes the checkpoint-recovery parser with arbitrary
// store bytes, read as the store of each of several slices: it must
// never panic, the prefix it accepts must lie within the input, and —
// the resume invariant — that accepted prefix must itself re-read
// cleanly as exactly the records validPrefix counted, each carrying the
// slice's next run id. A disagreement between the two parsers is how a
// resumed campaign would diverge from a fresh one.
func FuzzStorePrefix(f *testing.F) {
	f.Add([]byte(`{"run_id":0,"protocol":"two-bit","net":"crossbar","q":0.1,"w":0.3,"procs":4,"replicate":0,"seed":7}` + "\n"))
	f.Add([]byte(`{"run_id":0}` + "\n" + `{"run_id":1}` + "\n" + `{"run_id":2,"torn`))
	f.Add([]byte(`{"run_id":1}` + "\n")) // out of sequence: corruption
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(``))
	// Slice stores with stride N > 1: slice 1/2 torn, slice 2/3 clean,
	// and a slice-1/2 line out of stride.
	f.Add([]byte(`{"run_id":1}` + "\n" + `{"run_id":3}` + "\n" + `{"run_id":5,"torn`))
	f.Add([]byte(`{"run_id":2}` + "\n" + `{"run_id":5}` + "\n" + `{"run_id":8}` + "\n"))
	f.Add([]byte(`{"run_id":1}` + "\n" + `{"run_id":2}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			// ReadRecords' line cap is 1<<24; keep fuzz inputs far below
			// it so the two parsers cannot disagree on line length alone.
			return
		}
		for _, sl := range []Slice{Whole, {1, 2}, {2, 3}} {
			n, count, err := validPrefix(bytes.NewReader(data), "fuzz", sl)
			if err != nil {
				continue // detected corruption: a legitimate, non-panicking outcome
			}
			if n < 0 || n > int64(len(data)) {
				t.Fatalf("slice %v: prefix length %d outside input of %d bytes", sl, n, len(data))
			}
			recs, err := ReadRecords(bytes.NewReader(data[:n]), sl)
			if err != nil {
				t.Fatalf("slice %v: accepted prefix of %d bytes does not re-read: %v", sl, n, err)
			}
			if len(recs) != count {
				t.Fatalf("slice %v: validPrefix counted %d records, ReadRecords found %d", sl, count, len(recs))
			}
			for k, rec := range recs {
				if rec.RunID != sl.id(k) {
					t.Fatalf("slice %v: record %d has run id %d", sl, k, rec.RunID)
				}
			}
		}
	})
}
