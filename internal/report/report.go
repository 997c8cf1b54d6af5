// Package report renders the experiment results as fixed-width text tables
// in the layout of the paper's Table 4-1 and 4-2, plus a generic grid
// renderer for the extension experiments.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Grid is a labeled 2-D table of float64 cells.
type Grid struct {
	Title    string      `json:"title"`
	RowLabel string      `json:"row_label"` // e.g. "w"
	ColLabel string      `json:"col_label"` // e.g. "n"
	Rows     []string    `json:"rows"`
	Cols     []string    `json:"cols"`
	Cells    [][]float64 `json:"cells"`    // [row][col]
	Decimals int         `json:"decimals"` // digits after the point (default 3)
}

// Validate reports structural errors.
func (g *Grid) Validate() error {
	if len(g.Cells) != len(g.Rows) {
		return fmt.Errorf("report: %d rows but %d cell rows", len(g.Rows), len(g.Cells))
	}
	for i, row := range g.Cells {
		if len(row) != len(g.Cols) {
			return fmt.Errorf("report: row %d has %d cells, want %d", i, len(row), len(g.Cols))
		}
	}
	return nil
}

// Write renders the grid to w.
func (g *Grid) Write(w io.Writer) error {
	if err := g.Validate(); err != nil {
		return err
	}
	dec := g.Decimals
	if dec == 0 {
		dec = 3
	}
	width := dec + 5
	if g.Title != "" {
		fmt.Fprintf(w, "%s\n", g.Title)
	}
	head := g.ColLabel + ":"
	fmt.Fprintf(w, "%-10s", head)
	for _, c := range g.Cols {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for i, r := range g.Rows {
		label := r
		if g.RowLabel != "" {
			label = g.RowLabel + " = " + r
		}
		fmt.Fprintf(w, "%-10s", label)
		for _, v := range g.Cells[i] {
			fmt.Fprintf(w, "%*.*f", width, dec, v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// String renders the grid to a string, panicking on structural errors
// (construction is programmer-controlled).
func (g *Grid) String() string {
	var b strings.Builder
	if err := g.Write(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// PaperTable renders a Table 4-1/4-2-shaped result: one section per case
// (sharing level or q), rows w, columns n.
type PaperTable struct {
	Title    string
	Sections []string      // e.g. "case 1", "case 2", ...
	WValues  []float64     // row axis
	NValues  []int         // column axis
	Values   [][][]float64 // [section][w][n]
	Decimals int
}

// Write renders the table.
func (t *PaperTable) Write(w io.Writer) error {
	if len(t.Values) != len(t.Sections) {
		return fmt.Errorf("report: %d sections but %d value groups", len(t.Sections), len(t.Values))
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	cols := make([]string, len(t.NValues))
	for i, n := range t.NValues {
		cols[i] = fmt.Sprintf("%d", n)
	}
	for si, sec := range t.Sections {
		rows := make([]string, len(t.WValues))
		for i, wv := range t.WValues {
			rows[i] = fmt.Sprintf("%.1f", wv)
		}
		g := Grid{
			Title:    sec + ":",
			RowLabel: "w",
			ColLabel: "n",
			Rows:     rows,
			Cols:     cols,
			Cells:    t.Values[si],
			Decimals: t.Decimals,
		}
		if err := g.Write(w); err != nil {
			return fmt.Errorf("report: section %q: %w", sec, err)
		}
	}
	return nil
}

// String renders the table to a string.
func (t *PaperTable) String() string {
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// SideBySide renders computed-vs-paper values cell by cell as
// "computed (paper)" strings, for EXPERIMENTS.md-style comparisons.
func SideBySide(title string, sections []string, wValues []float64, nValues []int, got, paper [][][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for si, sec := range sections {
		fmt.Fprintf(&b, "%s:\n", sec)
		fmt.Fprintf(&b, "%-8s", "n:")
		for _, n := range nValues {
			fmt.Fprintf(&b, "%18d", n)
		}
		fmt.Fprintln(&b)
		for wi, wv := range wValues {
			fmt.Fprintf(&b, "w = %.1f ", wv)
			for ni := range nValues {
				cell := fmt.Sprintf("%.3f (%.3f)", got[si][wi][ni], paper[si][wi][ni])
				fmt.Fprintf(&b, "%18s", cell)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
