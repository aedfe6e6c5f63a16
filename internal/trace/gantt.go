package trace

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"autorte/internal/sim"
)

// Gantt renders an ASCII timeline of task execution from a recorder's
// Spans: one row per source, one character per resolution bucket.
//
//	'#' executing   '!' deadline miss   'x' aborted   ' ' idle
//
// A slice still running at the last record runs to the window end, and
// a marker at the window end lands in the last bucket. Markers overwrite
// execution; of two markers in one bucket the later one shows. Sources
// defaults to every source with a record in the window when nil.
func Gantt(w io.Writer, r *Recorder, sources []string, from, to sim.Time, resolution sim.Duration) error {
	if resolution <= 0 || to <= from {
		return fmt.Errorf("trace: bad gantt window")
	}
	buckets := int((to - from + resolution - 1) / resolution)
	if buckets > 4096 {
		return fmt.Errorf("trace: gantt window needs %d buckets; coarsen the resolution", buckets)
	}
	if sources == nil && r != nil {
		seen := map[string]bool{}
		for _, rec := range r.Records {
			if rec.At >= from && rec.At <= to && !seen[rec.Source] {
				seen[rec.Source] = true
				sources = append(sources, rec.Source)
			}
		}
		sort.Strings(sources)
	}
	width := 0
	rows := make(map[string][]byte, len(sources))
	for _, s := range sources {
		width = max(width, len(s))
		rows[s] = bytes.Repeat([]byte{' '}, buckets)
	}
	for _, sp := range r.Spans() {
		row := rows[sp.Kind]
		if row == nil {
			continue
		}
		a, b := sim.Time(sp.Start), sim.Time(sp.End)
		ch := byte('#')
		switch sp.Name {
		case "run":
			if sp.Open {
				b = to
			}
		case "abort":
			ch = 'x'
		case "deadline miss":
			ch = '!'
		default:
			continue // drops, errors and recoveries draw nothing
		}
		if b < from || a > to {
			continue
		}
		// Clamp both ends to the window, and an index of `to` itself to
		// the last bucket, so a marker at the window edge still renders.
		i0 := min(int((max(a, from)-from)/resolution), buckets-1)
		i1 := min(int((min(b, to)-from)/resolution), buckets-1)
		for i := i0; i <= i1; i++ {
			if row[i] == ' ' || ch != '#' {
				row[i] = ch
			}
		}
	}
	fmt.Fprintf(w, "%-*s  |%s| %v..%v (1 char = %v)\n", width, "task", timeAxis(buckets), from, to, resolution)
	for _, src := range sources {
		fmt.Fprintf(w, "%-*s  |%s|\n", width, src, rows[src])
	}
	return nil
}

func timeAxis(buckets int) []byte {
	axis := make([]byte, buckets)
	for i := range axis {
		switch {
		case i%10 == 0:
			axis[i] = '+'
		default:
			axis[i] = '-'
		}
	}
	return axis
}
