package trace

import (
	"reflect"
	"testing"

	"autorte/internal/obs"
)

func TestRecorderSpans(t *testing.T) {
	run := func(src string, from, to int64) obs.SpanEvent {
		return obs.SpanEvent{Name: "run", Kind: src, Start: from, End: to, Interval: true}
	}
	mark := func(name, src string, at int64, detail string) obs.SpanEvent {
		return obs.SpanEvent{Name: name, Kind: src, Start: at, End: at, Detail: detail}
	}
	for _, tc := range []struct {
		name string
		recs []Record
		want []obs.SpanEvent
	}{{
		name: "preempt and resume",
		recs: []Record{
			{At: 0, Kind: Activate, Source: "a", Job: 1},
			{At: 0, Kind: Start, Source: "a", Job: 1},
			{At: 3, Kind: Preempt, Source: "a", Job: 1},
			{At: 3, Kind: Start, Source: "b", Job: 1},
			{At: 5, Kind: Finish, Source: "b", Job: 1},
			{At: 5, Kind: Resume, Source: "a", Job: 1},
			{At: 7, Kind: Finish, Source: "a", Job: 1},
		},
		want: []obs.SpanEvent{run("a", 0, 3), run("b", 3, 5), run("a", 5, 7)},
	}, {
		name: "abort mid-slice",
		recs: []Record{
			{At: 2, Kind: Start, Source: "a", Job: 4},
			{At: 6, Kind: Abort, Source: "a", Job: 4, Info: "budget"},
		},
		want: []obs.SpanEvent{run("a", 2, 6), mark("abort", "a", 6, "job 4: budget")},
	}, {
		name: "miss, drop, error and recover",
		recs: []Record{
			{At: 1, Kind: Start, Source: "a", Job: 1},
			{At: 1, Kind: Finish, Source: "a", Job: 1},
			{At: 9, Kind: Miss, Source: "a", Job: 2},
			{At: 9, Kind: Drop, Source: "m", Job: 3, Info: "queue full"},
			{At: 10, Kind: Error, Source: "c", Job: 0, Info: "stale"},
			{At: 11, Kind: Recover, Source: "c", Job: 0, Info: "restart"},
		},
		want: []obs.SpanEvent{
			run("a", 1, 1),
			mark("deadline miss", "a", 9, "job 2"),
			mark("drop", "m", 9, "job 3: queue full"),
			mark("error", "c", 10, "job 0: stale"),
			mark("recover", "c", 11, "job 0: restart"),
		},
	}, {
		name: "slices open at the last record",
		recs: []Record{
			{At: 4, Kind: Start, Source: "b", Job: 1},
			{At: 5, Kind: Start, Source: "a", Job: 1},
			{At: 8, Kind: Activate, Source: "c", Job: 1},
		},
		want: []obs.SpanEvent{
			{Name: "run", Kind: "a", Start: 5, End: 8, Interval: true, Open: true},
			{Name: "run", Kind: "b", Start: 4, End: 8, Interval: true, Open: true},
		},
	}, {
		name: "no records",
	}} {
		r := &Recorder{}
		for _, rec := range tc.recs {
			r.Add(rec)
		}
		if got := r.Spans(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Spans =\n%+v\nwant\n%+v", tc.name, got, tc.want)
		}
	}
	var nilRec *Recorder
	if got := nilRec.Spans(); got != nil {
		t.Errorf("nil recorder: Spans = %+v, want nil", got)
	}
}
