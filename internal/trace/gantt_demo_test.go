package trace_test

import (
	"math"
	"strings"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/workload"
)

// TestGanttMatchesChromeOnDemo renders the demo vehicle's trace both
// ways and checks that the Gantt '#' cells are exactly the buckets the
// Chrome "run" events cover, less the buckets a marker took: both views
// draw the one slice reconstruction, Recorder.Spans.
func TestGanttMatchesChromeOnDemo(t *testing.T) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := rte.Build(sys, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(200 * sim.Millisecond)
	const from, to, res = 0, 20 * sim.Millisecond, 200 * sim.Microsecond
	var sb strings.Builder
	if err := trace.Gantt(&sb, p.Trace, nil, from, to, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")[1:]
	buckets := int((to - from + res - 1) / res)
	type cell struct {
		src string
		i   int
	}
	hash, marked := map[cell]bool{}, map[cell]bool{}
	rows := map[string]bool{}
	for _, line := range lines {
		src := strings.TrimSpace(line[:strings.Index(line, "|")])
		cells := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		rows[src] = true
		for i := range cells {
			switch cells[i] {
			case '#':
				hash[cell{src, i}] = true
			case '!', 'x':
				marked[cell{src, i}] = true
			}
		}
	}
	if len(hash) == 0 {
		t.Fatal("gantt shows no execution")
	}

	lane := map[int64]string{}
	covered := map[cell]bool{}
	for _, ev := range obs.ChromeEvents(p.Trace.Spans()) {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			lane[ev.TID] = ev.Args["name"].(string)
		case ev.Phase == "X":
			src := lane[ev.TID]
			a := sim.Time(math.Round(ev.TS * 1e3))
			b := sim.Time(math.Round((ev.TS + ev.Dur) * 1e3))
			if !rows[src] || b < from || a > to {
				continue
			}
			i0 := min(int((max(a, from)-from)/res), buckets-1)
			i1 := min(int((min(b, to)-from)/res), buckets-1)
			for i := i0; i <= i1; i++ {
				if c := (cell{src, i}); !marked[c] {
					covered[c] = true
				}
			}
		}
	}
	for c := range hash {
		if !covered[c] {
			t.Errorf("gantt '#' at %s bucket %d has no Chrome run event", c.src, c.i)
		}
	}
	for c := range covered {
		if !hash[c] {
			t.Errorf("Chrome run event covers %s bucket %d, gantt shows none", c.src, c.i)
		}
	}
}
