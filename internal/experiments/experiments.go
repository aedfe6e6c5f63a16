// Package experiments implements the reproduction suite E1–E14 defined in
// DESIGN.md. The paper is a position paper without quantitative results,
// so each experiment operationalizes one of its claims; EXPERIMENTS.md
// records the qualitative shape the paper predicts next to what these
// functions measure. cmd/experiments prints the tables; bench_test.go
// wraps each experiment as a benchmark.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Run is one result table of the suite at its default scale, under the
// name `experiments -only` selects it by.
type Run struct {
	Name  string
	Table func() (*Table, error)
}

// Runs lists every table of the suite in the order All renders them.
var Runs = []Run{
	{"E1", func() (*Table, error) { return E1Interference(DefaultE1()) }},
	{"E2", func() (*Table, error) { return E2IsolationOverhead(DefaultE2()) }},
	{"E3", func() (*Table, error) { return E3OverrunContainment(DefaultE3()) }},
	{"E4", func() (*Table, error) { return E4BusComparison(DefaultE4()) }},
	{"E5", func() (*Table, error) { return E5AnalysisVsSim(DefaultE5()) }},
	{"E6", func() (*Table, error) { return E6Contracts(DefaultE6()) }},
	{"E7", func() (*Table, error) { return E7Consolidation(DefaultE7()) }},
	{"E8", func() (*Table, error) { return E8NoC(DefaultE8()) }},
	{"E9", func() (*Table, error) { return E9Extensibility(DefaultE9()) }},
	{"E10", func() (*Table, error) { return E10ErrorHandling(DefaultE10()) }},
	{"E11", func() (*Table, error) { return E11FaultCampaign(DefaultE11()) }},
	{"E11limp", func() (*Table, error) { return E11LimpHome(DefaultE11()) }},
	{"E11series", func() (*Table, error) { return E11RecoverySeries(DefaultE11()) }},
	{"E11timeline", func() (*Table, error) { return E11EscalationTimeline(DefaultE11()) }},
	{"E12", func() (*Table, error) { return E12DetectionCoverage(DefaultE12()) }},
	{"E12overhead", func() (*Table, error) { return E12Overhead(DefaultE12()) }},
	{"E12recovery", func() (*Table, error) { return E12Recovery(DefaultE12()) }},
	{"E12series", func() (*Table, error) { return E12RecoverySeries(DefaultE12()) }},
	{"E13", func() (*Table, error) { return E13Availability(DefaultE13()) }},
	{"E13Curve", func() (*Table, error) { return E13Curve(DefaultE13()) }},
	{"E14Observer", func() (*Table, error) { return E14Observer(DefaultE14()) }},
	{"E14Switchover", func() (*Table, error) { return E14Switchover(DefaultE14()) }},
	{"E14Placement", func() (*Table, error) { return E14Placement(DefaultE14()) }},
}

// Lookup returns the run of Runs with the given name.
func Lookup(name string) (Run, bool) {
	for _, r := range Runs {
		if r.Name == name {
			return r, true
		}
	}
	return Run{}, false
}

// All runs every experiment at its default scale and renders the tables.
func All(w io.Writer) error {
	for _, r := range Runs {
		tab, err := r.Table()
		if err != nil {
			return err
		}
		tab.Render(w)
	}
	return nil
}
