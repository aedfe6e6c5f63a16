// Command benchguard enforces the verification pipeline's performance
// budget against a BENCH_pipeline.json artifact (produced by benchjson)
// and prints a benchstat-style old-vs-new comparison when a baseline is
// supplied. `make bench` runs it after regenerating the artifact, and CI
// compares the fresh artifact against the committed baseline so perf
// regressions surface in the PR, not three PRs later.
//
// The guarded invariants must not regress:
//
//   - Every BenchmarkVerify/<size> allocs/op must stay under the -allocs
//     budget (default 1690, half the 3380 the seed shipped with).
//   - BenchmarkVerifyDSESweepInc/<size>/inc must be at least -incratio
//     (default 3.0) times faster than
//     BenchmarkVerifyDSESweep/<size>/bound, the sweep that re-verifies
//     its winner in full.
//   - A parallel path must not lose to its sequential run. Each place the
//     code runs in parallel reports a paired "par/seq-ratio" metric: the
//     run on GOMAXPROCS workers over the same run on one worker. The
//     campaigns (BenchmarkE13Availability, BenchmarkE14Observer) and the
//     annealing restarts (BenchmarkDSEAnnealParallel) must report one,
//     and every reported ratio must stay at or under -parratio (default
//     1.15): on multicore the fan-out must win outright, and even on a
//     one-CPU host — where both arms degenerate to one worker — the
//     parallel dispatch must remain overhead, not a tax.
//   - Every benchmark reporting an "on/off-ratio" metric (the paired
//     Benchmark*Flight comparisons): the always-on flight recorder must
//     cost at most -flightratio (default 1.05, i.e. 5%) over the
//     recorder-off baseline — the observability budget. (Rebased from 3%
//     when replica fan-in cell sharing cut the campaign's base time ~25%:
//     the recorder's absolute per-event cost did not change, but a faster
//     denominator raises the relative ratio.)
//
// A guard that finds no benchmarks to check fails: a vacuous pass from a
// mistyped -bench pattern must not look green.
//
// Usage:
//
//	benchguard -bench BENCH_pipeline.json [-old baseline.json] \
//	           [-allocs 1690] [-incratio 3.0] [-flightratio 1.05] \
//	           [-parratio 1.15]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Result mirrors benchjson's per-benchmark record.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

func main() {
	bench := flag.String("bench", "BENCH_pipeline.json", "benchmark artifact to guard")
	old := flag.String("old", "", "optional baseline artifact for the comparison table")
	allocs := flag.Int64("allocs", 1690, "allocs/op ceiling for every BenchmarkVerify/<size>")
	incRatio := flag.Float64("incratio", 3.0, "minimum DSE sweep speedup of the incremental path over the full re-verification sweep")
	flightRatio := flag.Float64("flightratio", 1.05, "maximum flight-recorder on/off ns/op ratio (observability budget)")
	parRatio := flag.Float64("parratio", 1.15, "maximum par/seq ns/op ratio of every paired par-vs-seq benchmark")
	flag.Parse()
	cur, err := load(*bench)
	if err != nil {
		fatal(err)
	}
	if *old != "" {
		base, err := load(*old)
		if err != nil {
			fatal(err)
		}
		compare(os.Stdout, base, cur)
	}
	violations := guard(cur, *allocs, *incRatio, *flightRatio, *parRatio)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d violation(s) in %s:\n", len(violations), *bench)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchguard: %s within budget\n", *bench)
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Result
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// parPairs are the benchmarks that must report a par/seq-ratio: the
// places the code runs in parallel.
var parPairs = []string{"BenchmarkDSEAnnealParallel", "BenchmarkE13Availability", "BenchmarkE14Observer"}

// guard checks the budget invariants and returns the violations found.
func guard(cur map[string]Result, allocCeiling int64, incRatio, flightRatio, parRatio float64) []string {
	var out []string
	sizes := 0
	for name, r := range cur {
		size, ok := strings.CutPrefix(name, "BenchmarkVerify/")
		if !ok || strings.Contains(size, "/") {
			continue
		}
		sizes++
		if r.AllocsPerOp > allocCeiling {
			out = append(out, fmt.Sprintf("BenchmarkVerify/%s: %d allocs/op exceeds budget %d", size, r.AllocsPerOp, allocCeiling))
		}
	}
	if sizes == 0 {
		out = append(out, "no BenchmarkVerify/<size> runs found — guard would pass vacuously")
	}
	incPairs := 0
	for name, inc := range cur {
		const pfx = "BenchmarkVerifyDSESweepInc/"
		if !strings.HasPrefix(name, pfx) || !strings.HasSuffix(name, "/inc") {
			continue
		}
		size := strings.TrimSuffix(strings.TrimPrefix(name, pfx), "/inc")
		incPairs++
		full, ok := cur["BenchmarkVerifyDSESweep/"+size+"/bound"]
		if !ok {
			out = append(out, fmt.Sprintf("BenchmarkVerifyDSESweepInc/%s has no bound sweep to compare against", size))
			continue
		}
		if inc.NsPerOp <= 0 {
			out = append(out, fmt.Sprintf("BenchmarkVerifyDSESweepInc/%s: non-positive ns/op", size))
			continue
		}
		if ratio := full.NsPerOp / inc.NsPerOp; ratio < incRatio {
			out = append(out, fmt.Sprintf("DSE sweep %s: incremental only %.2fx faster than the bound sweep (budget %.1fx)", size, ratio, incRatio))
		}
	}
	if incPairs == 0 {
		out = append(out, "no DSE sweep inc/bound pairs found — guard would pass vacuously")
	}
	out = append(out, ratioGuard(cur, "par/seq-ratio", "par", "seq", "par/seq-ratio", parRatio, parPairs...)...)
	out = append(out, ratioGuard(cur, "on/off-ratio", "flight recorder", "off", "flight-recorder on/off-ratio", flightRatio)...)
	sort.Strings(out)
	return out
}

// ratioGuard checks every benchmark reporting a paired ratio metric (the
// slow arm's ns/op over the fast arm's) against its ceiling. A required
// benchmark without the metric is a violation, and so, when none is
// required, is finding no such metric at all.
func ratioGuard(cur map[string]Result, metric, slow, fast, kind string, ceiling float64, required ...string) []string {
	var out []string
	for _, name := range required {
		if _, ok := cur[name].Metrics[metric]; !ok {
			out = append(out, fmt.Sprintf("%s: no %s metric", name, metric))
		}
	}
	found := 0
	for name, r := range cur {
		ratio, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		found++
		switch {
		case ratio <= 0:
			out = append(out, fmt.Sprintf("%s: non-positive %s", name, metric))
		case ratio > ceiling:
			out = append(out, fmt.Sprintf("%s: %s costs %.1f%% over %s (budget %.1f%%)",
				name, slow, (ratio-1)*100, fast, (ceiling-1)*100))
		}
	}
	if found == 0 && len(required) == 0 {
		out = append(out, fmt.Sprintf("no %s metrics found — guard would pass vacuously", kind))
	}
	return out
}

// compare prints a benchstat-style table of baseline vs current for every
// benchmark present in either artifact.
func compare(w io.Writer, old, cur map[string]Result) {
	names := map[string]bool{}
	for n := range old {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-52s %14s %14s %8s %12s %12s %8s\n", "name", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, n := range sorted {
		o, hasOld := old[n]
		c, hasCur := cur[n]
		switch {
		case !hasOld:
			fmt.Fprintf(w, "%-52s %14s %14.0f %8s %12s %12d %8s\n", n, "-", c.NsPerOp, "new", "-", c.AllocsPerOp, "new")
		case !hasCur:
			fmt.Fprintf(w, "%-52s %14.0f %14s %8s %12d %12s %8s\n", n, o.NsPerOp, "-", "gone", o.AllocsPerOp, "-", "gone")
		default:
			fmt.Fprintf(w, "%-52s %14.0f %14.0f %8s %12d %12d %8s\n",
				n, o.NsPerOp, c.NsPerOp, delta(o.NsPerOp, c.NsPerOp),
				o.AllocsPerOp, c.AllocsPerOp, delta(float64(o.AllocsPerOp), float64(c.AllocsPerOp)))
		}
	}
}

func delta(old, new float64) string {
	if old == 0 {
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(2)
}
