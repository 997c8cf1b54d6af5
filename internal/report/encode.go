package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Machine-readable Grid encodings for twobit sweep -format=csv|json and for
// archiving campaign aggregates. Both encodings round-trip losslessly:
// cell values are written with strconv's shortest representation that
// parses back to the identical float64.

// WriteCSV renders the grid as CSV. The layout is self-describing so
// ReadGridCSV can invert it exactly:
//
//	title,<Title>
//	axes,<RowLabel>,<ColLabel>,<Decimals>
//	,<col 1>,<col 2>,...
//	<row 1>,<v11>,<v12>,...
func (g *Grid) WriteCSV(w io.Writer) error {
	if err := g.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"title", g.Title}); err != nil {
		return err
	}
	if err := cw.Write([]string{"axes", g.RowLabel, g.ColLabel, strconv.Itoa(g.Decimals)}); err != nil {
		return err
	}
	if err := cw.Write(append([]string{""}, g.Cols...)); err != nil {
		return err
	}
	for i, r := range g.Rows {
		rec := make([]string, 0, len(g.Cols)+1)
		rec = append(rec, r)
		for _, v := range g.Cells[i] {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadGridCSV parses the WriteCSV layout.
func ReadGridCSV(r io.Reader) (*Grid, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("report: reading grid CSV: %w", err)
	}
	if len(recs) < 3 || len(recs[0]) != 2 || recs[0][0] != "title" ||
		len(recs[1]) != 4 || recs[1][0] != "axes" {
		return nil, fmt.Errorf("report: grid CSV lacks the title/axes header")
	}
	g := &Grid{Title: recs[0][1], RowLabel: recs[1][1], ColLabel: recs[1][2]}
	if g.Decimals, err = strconv.Atoi(recs[1][3]); err != nil {
		return nil, fmt.Errorf("report: grid CSV decimals: %w", err)
	}
	if len(recs[2]) < 1 || recs[2][0] != "" {
		return nil, fmt.Errorf("report: grid CSV column header must start with an empty cell")
	}
	g.Cols = append(g.Cols, recs[2][1:]...)
	for _, rec := range recs[3:] {
		if len(rec) != len(g.Cols)+1 {
			return nil, fmt.Errorf("report: grid CSV row %q has %d cells, want %d", rec[0], len(rec)-1, len(g.Cols))
		}
		g.Rows = append(g.Rows, rec[0])
		row := make([]float64, len(g.Cols))
		for i, s := range rec[1:] {
			if row[i], err = strconv.ParseFloat(s, 64); err != nil {
				return nil, fmt.Errorf("report: grid CSV cell %q: %w", s, err)
			}
		}
		g.Cells = append(g.Cells, row)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// gridFields is Grid without its JSON methods, so encoding one does not
// recurse. The tags on Grid's fields, not the Go names, define the format.
type gridFields Grid

// MarshalJSON encodes the grid in the stable schema.
func (g *Grid) MarshalJSON() ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal((*gridFields)(g))
}

// UnmarshalJSON decodes the MarshalJSON schema.
func (g *Grid) UnmarshalJSON(data []byte) error {
	var f gridFields
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("report: decoding grid JSON: %w", err)
	}
	*g = Grid(f)
	return g.Validate()
}

// ReadGridJSON parses one JSON-encoded grid.
func ReadGridJSON(r io.Reader) (*Grid, error) {
	var g Grid
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}
