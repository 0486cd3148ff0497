// Package experiment contains one runner per table and figure of the
// paper's evaluation (§V). Each runner builds its workload, executes the
// systems under test and returns a Table whose rows mirror what the paper
// plots, so benches and CLIs can print reproductions directly.
package experiment

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result: a caption, column headers and
// rows of cells.
type Table struct {
	Caption string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FindRow returns the first row whose first cell equals key, or nil.
func (t *Table) FindRow(key string) []string {
	for _, row := range t.Rows {
		if len(row) > 0 && row[0] == key {
			return row
		}
	}
	return nil
}
