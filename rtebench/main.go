// Command rtebench is the end-to-end benchmark of autorte. It runs one
// named workload from a seed, times only the calls into the platform's
// public functions, checks every output against a reference built from
// values, and prints the metrics as one JSON line:
//
//	rtebench --workload verify --seed 1 --seconds 15 --trace 0
//
// The load is a closed loop with one client: each operation starts when
// the previous one has returned. With --trace 0 the run reports the
// end-to-end metrics with all instrumentation off. With --trace 1 the
// first half of the run is untraced and the second half attaches the
// platform's Observe hooks and records spans around every public call;
// the run then reports the per-layer metrics and writes the spans to
// --out. README.md lists every metric, its unit and direction, and the
// end-to-end metric each layer metric should move.
//
// The exit status is 0 when every output matched, 1 when any output or
// check failed (the JSON line still reports correct=false), and 2 when
// the benchmark could not run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// nproc is the worker count of the machine the benchmark was sized on.
// GOMAXPROCS and every Workers/restarts argument stay at or below it, so
// a run measures the same fan-out on every host.
const nproc = 2

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 3

// benchWorkload is one named set of inputs and the operation timed on them.
type benchWorkload struct {
	name string
	// tailPct is the percentile reported as op_ms_tail: one that keeps
	// at least ten samples beyond it at this workload's operation count in
	// a default-length run. It stops at p90, and at p75 for reverify's
	// one-millisecond operations: on a host whose hypervisor steals CPU in
	// bursts, higher percentiles count the stalls more than the program
	// and did not repeat between runs.
	tailPct float64
	// setup generates the seeded inputs and builds the program state the
	// timed loop starts from. It is timed for setup_s.
	setup func(seed uint64, e *env) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// op runs operation i and returns the host time spent inside the
	// platform's public calls. An unexpected error or an output that
	// differs from its reference is returned as an error.
	op(i int) (time.Duration, error)
	// finish runs the checks that need the whole loop's outputs.
	finish() error
}

var workloads = []benchWorkload{
	{name: "verify", tailPct: 90, setup: setupVerify},
	{name: "reverify", tailPct: 75, setup: setupReverify},
	{name: "search", tailPct: 90, setup: setupSearch},
	{name: "place", tailPct: 75, setup: setupPlace},
	{name: "simulate", tailPct: 90, setup: setupSimulate},
	{name: "campaign", tailPct: 75, setup: setupCampaign},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "host seconds the timed loop runs")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "rtebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(workers())
	res, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rtebench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rtebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// workers is the fan-out every workload passes to the platform.
func workers() int {
	return min(nproc, runtime.NumCPU())
}

// execute sets the workload up, runs the timed loop and the checks, and
// assembles the result.
func execute(w benchWorkload, seed uint64, length time.Duration, traced bool, out string, stdout, stderr io.Writer) (*result, error) {
	e := newEnv(w.name, stderr)
	if traced {
		e.spans, e.layers = newTracer(), newLayers()
	}
	var inst instance
	setups := make([]float64, setupRepeats)
	for r := range setups {
		inst = nil // let the previous set-up be collected before timing the next
		runtime.GC()
		root := e.spans.open("bench.setup")
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, e)
		setups[r] = time.Since(t0).Seconds()
		e.spans.close(root)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	spans, lay := e.spans, e.layers
	var base, lat []float64
	i := 0
	if traced {
		e.spans, e.layers = nil, nil
		base = e.loop(inst, &i, length/2)
		lay.startPhase()
		e.spans, e.layers = spans, lay
		// The traced half replays the untraced half's operations from the
		// first one, so trace_overhead_ratio compares the same inputs.
		i = 0
		lat = e.loop(inst, &i, length-length/2)
		lay.stopPhase()
		// The checks below are not part of the traced phase.
		e.spans, e.layers = nil, nil
	} else {
		lat = e.loop(inst, &i, length)
	}
	if err := inst.finish(); err != nil {
		e.failf("%v", err)
	}
	if len(lat) == 0 {
		e.failf("no operation completed in %v", length)
	}

	res := &result{
		Correct:   len(e.failures) == 0 && e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the run itself, which failed before any operation
		res.Failed = 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d operations, %d failed, set-up %.4fs (median of %d)\n",
		w.name, seed, e.attempted, e.failed, median(setups), len(setups))
	if !traced {
		p50, tail := percentile(lat, 50), percentile(lat, w.tailPct)
		fmt.Fprintf(stdout, "op latency over %d samples (tail is p%g):", len(lat), w.tailPct)
		for _, p := range []float64{50, 75, 90, 95, 99} {
			v := percentile(lat, p)
			fmt.Fprintf(stdout, " p%g %.4f ms (%d beyond);", p, v, beyond(lat, v))
		}
		fmt.Fprintln(stdout)
		res.Metrics["op_ms_p50"] = metric{p50, "ms"}
		res.Metrics["op_ms_tail"] = metric{tail, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["mem_mb_p50"] = metric{median(e.held), "MB"}
		fmt.Fprintf(stdout, "memory held from the OS after an operation: median %.2f MB, max %.2f MB; peak RSS %.2f MB\n",
			median(e.held), percentile(e.held, 100), peakRSSMB())
	} else {
		layers := layerMetrics(lay, spans, len(setups))
		if lr, ok := inst.(interface{ layerValues() map[string]float64 }); ok {
			for k, v := range lr.layerValues() {
				layers[k] = v
			}
		}
		layers["trace_overhead_ratio"] = ratio(percentile(e.cmp, 50), percentile(base, 50))
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
		spanPath, counterPath, err := writeTrace(out, w.name, seed, spans, lay)
		if err != nil {
			e.failf("writing the trace: %v", err)
			res.Correct = false
		} else {
			fmt.Fprintf(stdout, "trace: %d spans in %s, raw counters in %s\n", len(spans.spans), spanPath, counterPath)
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range e.failures {
		fmt.Fprintln(stderr, "rtebench: check failed:", f)
	}
	return res, nil
}
