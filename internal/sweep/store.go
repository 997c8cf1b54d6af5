package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Store is the JSON-lines result store: one Record per line, in run-id
// order, appended and synced as runs complete. The sync-per-record is the
// checkpoint: after a crash the file holds a valid prefix of the campaign
// plus at most one torn line, which a resuming open truncates away. A
// store holds one Slice of the plan's run ids — its k-th record is run
// I + k·N — and because records are emitted in run-id order, "the
// completed runs" is always exactly the slice's first Next() ids, so
// resumption is a single offset. The whole campaign is slice 0/1.
type Store struct {
	path string
	f    *os.File
	sl   Slice
	next int
}

// Open creates (resume=false) or reopens (resume=true) the store of a
// whole campaign at path.
func Open(path string, resume bool) (*Store, error) { return openStore(path, Whole, resume) }

// openStore opens the store of slice sl at path. On resume the file is
// scanned, the longest valid prefix of the slice's records is kept,
// anything after it is truncated, and appends continue from there.
func openStore(path string, sl Slice, resume bool) (*Store, error) {
	if !resume {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("sweep: creating store: %w", err)
		}
		return &Store{path: path, f: f, sl: sl}, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening store: %w", err)
	}
	valid, count, err := validPrefix(f, path, sl)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: truncating torn checkpoint: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: seeking to checkpoint: %w", err)
	}
	return &Store{path: path, f: f, sl: sl, next: count}, nil
}

// validPrefix scans a store stream and returns the byte length and
// record count of the longest prefix of complete, parseable lines
// holding sl's run ids in order. A torn final line (no trailing newline,
// or unparseable) ends the prefix; a parseable line with the wrong run
// id is corruption and errors out, because silently dropping interior
// records would let a resumed campaign diverge. The seek to the start
// happens here so Open can hand over the file as-is; non-file readers
// (the fuzz harness) pass their bytes directly.
func validPrefix(r io.Reader, name string, sl Slice) (bytes64 int64, count int, err error) {
	if s, ok := r.(io.Seeker); ok {
		if _, err := s.Seek(0, io.SeekStart); err != nil {
			return 0, 0, fmt.Errorf("sweep: seeking store: %w", err)
		}
	}
	br := bufio.NewReader(r)
	var offset int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a torn final line, end of prefix.
			return offset, count, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("sweep: scanning store: %w", err)
		}
		// Decode the full record, not just the id: a line that parses as
		// JSON but not as a Record (wrong field types) is torn/garbage
		// and must end the prefix rather than be counted.
		var rec struct {
			Record
			RunID *int `json:"run_id"`
		}
		if json.Unmarshal(bytes.TrimSpace(line), &rec) != nil || rec.RunID == nil {
			// Torn or garbage line: end of prefix.
			return offset, count, nil
		}
		if *rec.RunID != sl.id(count) {
			return 0, 0, fmt.Errorf("sweep: store %s is corrupt: line %d holds run %d",
				name, count, *rec.RunID)
		}
		offset += int64(len(line))
		count++
	}
}

// Next returns the number of completed runs the store holds — for a
// whole-campaign store, equivalently the id of the next record it
// expects. It is the resume offset Execute takes.
func (s *Store) Next() int { return s.next }

// Append checkpoints one record. Records must arrive in run-id order;
// Execute guarantees this.
func (s *Store) Append(rec Record) error {
	if want := s.sl.id(s.next); rec.RunID != want {
		return fmt.Errorf("sweep: store expects run %d, got %d", want, rec.RunID)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encoding record %d: %w", rec.RunID, err)
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("sweep: appending record %d: %w", rec.RunID, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("sweep: syncing record %d: %w", rec.RunID, err)
	}
	s.next++
	return nil
}

// Close closes the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// CheckPlan verifies that the records the store already holds are a
// prefix of its slice of p's expansion (see CheckPrefix).
func (s *Store) CheckPlan(p *Plan) error {
	if s.next == 0 {
		return nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("sweep: opening store: %w", err)
	}
	defer f.Close()
	recs, err := ReadRecords(f, s.sl)
	if err != nil {
		return err
	}
	return checkSlice(p, s.sl, recs)
}

// ReadRecords parses a complete store stream of slice sl into ordered
// records, verifying the run-id sequence.
func ReadRecords(r io.Reader, sl Slice) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("sweep: record %d: %w", len(recs), err)
		}
		if rec.RunID != sl.id(len(recs)) {
			return nil, fmt.Errorf("sweep: record %d is out of sequence (run id %d)", len(recs), rec.RunID)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: reading store: %w", err)
	}
	return recs, nil
}

// LoadStore reads all records from a whole-campaign store file.
func LoadStore(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening store: %w", err)
	}
	defer f.Close()
	return ReadRecords(f, Whole)
}
