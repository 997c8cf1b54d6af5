package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// Slice is one part of a campaign's run-id space: the runs whose ids
// are I modulo N. A campaign split N ways runs each slice — in one
// process, or in N independent ones sharing a filesystem — into its own
// ordered Store at <shard dir>/s<I>of<N>.jsonl, and WriteMergedStore
// interleaves the slices back into the store a whole-campaign run
// writes. Runs are hermetic functions of (plan, run id), so the merge is
// byte-identical to that store.
type Slice struct{ I, N int }

// Whole is the slice holding every run of a campaign.
var Whole = Slice{0, 1}

func (sl Slice) String() string { return fmt.Sprintf("%d/%d", sl.I, sl.N) }

// id returns the run id of the slice's k-th run.
func (sl Slice) id(k int) int { return sl.I + k*sl.N }

// Size returns how many runs of a total-run plan fall in the slice.
func (sl Slice) Size(total int) int {
	if sl.I >= total {
		return 0
	}
	return (total - sl.I + sl.N - 1) / sl.N
}

func (sl Slice) check() error {
	if sl.N < 1 || sl.I < 0 || sl.I >= sl.N {
		return fmt.Errorf("sweep: slice %v out of range", sl)
	}
	return nil
}

// path names the slice's store file in a shard directory.
func (sl Slice) path(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("s%dof%d.jsonl", sl.I, sl.N))
}

var sliceNameRE = regexp.MustCompile(`^s\d+of(\d+)\.jsonl$`)

// sliceWidth returns the slice count N the store files in dir were
// written for (0 when there are none). A directory holding slices of
// two widths is refused: two partitions of one campaign run ids twice.
func sliceWidth(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("sweep: scanning shard dir: %w", err)
	}
	width := 0
	for _, e := range entries {
		m := sliceNameRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if width != 0 && n != width {
			return 0, fmt.Errorf("sweep: shard dir %s holds both %d-way and %d-way slices", dir, width, n)
		}
		width = n
	}
	return width, nil
}

// OpenSlice opens (creating if needed) slice sl's store in the shard
// directory dir and resumes it. Only the slice's own file is scanned and
// truncated at a torn tail, so a sibling slice's process may keep
// appending to its file meanwhile. A directory holding slices of another
// width is refused.
func OpenSlice(dir string, sl Slice) (*Store, error) {
	if err := sl.check(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: creating shard dir: %w", err)
	}
	width, err := sliceWidth(dir)
	if err != nil {
		return nil, err
	}
	if width != 0 && width != sl.N {
		return nil, fmt.Errorf("sweep: shard dir %s holds %d-way slices; this campaign shards %d ways", dir, width, sl.N)
	}
	return openStore(sl.path(dir), sl, true)
}

// WriteMergedStore interleaves the slice stores in dir into the
// canonical whole-campaign store at path, written atomically via a temp
// file and a rename. Run r is line r div N of slice r mod N, so the
// merge reads the slices round-robin and copies each line's bytes. It
// refuses a missing or short slice, a directory of mixed widths, and a
// record whose run id or coordinates differ from the plan's point.
func WriteMergedStore(p *Plan, dir, path string) error {
	points, err := p.Points()
	if err != nil {
		return err
	}
	of, err := sliceWidth(dir)
	if err != nil {
		return err
	}
	if of == 0 {
		return fmt.Errorf("sweep: shard dir %s holds no slices", dir)
	}
	slices := make([]*bufio.Reader, of)
	for i := range slices {
		f, err := os.Open(Slice{i, of}.path(dir))
		if err != nil {
			return fmt.Errorf("sweep: shard dir %s is missing slice %d/%d: %w", dir, i, of, err)
		}
		defer f.Close()
		slices[i] = bufio.NewReader(f)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".store-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	bw := bufio.NewWriter(tmp)
	for id, pt := range points {
		sl, k := Slice{id % of, of}, id/of
		line, err := slices[sl.I].ReadBytes('\n')
		if err == io.EOF {
			return fmt.Errorf("sweep: slice %v holds %d of its %d runs; finish it before merging", sl, k, sl.Size(len(points)))
		}
		if err != nil {
			return fmt.Errorf("sweep: reading slice %v: %w", sl, err)
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("sweep: slice %v line %d: %w", sl, k, err)
		}
		if rec.RunID != id {
			return fmt.Errorf("sweep: slice %v line %d holds run %d, want run %d", sl, k, rec.RunID, id)
		}
		if err := matchRecord(rec, pt); err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	for i, r := range slices {
		if _, err := r.Peek(1); err != io.EOF {
			return fmt.Errorf("sweep: slice %d/%d holds lines past its last run", i, of)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename durable: sync the containing directory.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil // best-effort: the rename itself succeeded
	}
	d.Sync()
	return d.Close()
}
