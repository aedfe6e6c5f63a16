package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval: a benchmark root (a set-up or an
// operation) or a public call made inside one.
type span struct {
	Name string `json:"name"`
	// Op numbers the roots in the order they were opened; a call carries
	// its root's number.
	Op     int   `json:"op"`
	ID     int   `json:"id"`
	Parent int   `json:"parent"` // -1 for a root
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps a run's spans in memory until write. A nil tracer records
// nothing, which is how the untraced run and phase pay no tracing cost.
type tracer struct {
	t0    time.Time
	spans []span
	root  int // index of the open root, -1 when none
	roots int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// open starts a root span and returns its index.
func (t *tracer) open(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Op: t.roots, ID: len(t.spans), Parent: -1,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.roots++
	t.root = len(t.spans) - 1
	return t.root
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.root = -1
}

// record adds a finished call under the open root.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: len(t.spans), Parent: t.root, Start: start.Sub(t.t0).Nanoseconds()}
	s.End = s.Start + d.Nanoseconds()
	if t.root >= 0 {
		s.Op = t.spans[t.root].Op
	}
	t.spans = append(t.spans, s)
}

// selfTimes sums, per layer, the self time of the spans under operation
// roots: a span's duration minus the part of it its children cover. The
// layer is the span name up to its first dot ("deploy" for
// "deploy.Descend"); operation roots are the "bench" layer, so their self
// time is the benchmark's own work between the calls it times.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		root := s
		if s.Parent >= 0 {
			root = t.spans[s.Parent]
		}
		if root.Name != "bench.op" {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is how much of [start, end) the union of the intervals covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeTrace stores a traced run in dir: the spans as JSON lines, and the
// raw Observe-hook counters and maxima the per-layer metrics were derived
// from as one JSON object. It returns the two file paths.
func writeTrace(dir, workload string, seed uint64, t *tracer, l *layers) (string, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	spans, counters := base+".spans.jsonl", base+".counters.json"
	err := writeFile(spans, func(enc *json.Encoder) error {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = writeFile(counters, func(enc *json.Encoder) error {
			return enc.Encode(map[string]any{"operations": l.ops, "sums": l.raw, "maxima": l.max})
		})
	}
	return spans, counters, err
}

// writeFile creates path and writes it through a JSON encoder.
func writeFile(path string, write func(*json.Encoder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(json.NewEncoder(w)); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
