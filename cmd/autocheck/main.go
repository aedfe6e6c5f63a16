// Command autocheck statically verifies a deployed system description:
// model validity, VFB connectivity, fixed-priority schedulability on every
// ECU, bus schedulability per channel, and end-to-end latency constraints
// — the "prior to implementation system configuration checks" of §2.
//
// Exit status: 0 verified, 3 verification failed, 1 error.
//
// Usage:
//
//	autocheck -system vehicle.json [-v]
//	autocheck -demo
//
// Observability artifacts: -metrics dumps the pipeline's metric registry
// in Prometheus text format (cache hits, per-stage duration
// histograms); -trace-out writes the stage spans as Chrome trace-event
// JSON loadable in Perfetto, nested on one "pipeline" lane (a pass runs
// on its caller); -trace-txt renders the same spans as an indented text
// tree.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autorte/internal/contract"
	"autorte/internal/core"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func main() {
	var (
		systemPath    = flag.String("system", "", "system JSON (exchange format)")
		contractsPath = flag.String("contracts", "", "contract catalogue JSON (optional)")
		demo          = flag.Bool("demo", false, "verify the generated demo vehicle")
		seed          = flag.Uint64("seed", 1, "workload generator seed (with -demo)")
		verbose       = flag.Bool("v", false, "print per-task response times")
		metricsPath   = flag.String("metrics", "", "write pipeline metrics (Prometheus text format) to file")
		traceOutPath  = flag.String("trace-out", "", "write pipeline stage spans as Chrome trace JSON to file")
		traceTxtPath  = flag.String("trace-txt", "", "write pipeline stage spans as a text tree to file")
		bundlePath    = flag.String("bundle", "", "write a diagnostic bundle of the verification run (inspect with autodiag)")
	)
	flag.Parse()

	var sys *model.System
	var err error
	if *demo {
		sys, err = workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(*seed))
	} else if *systemPath != "" {
		var f *os.File
		if f, err = os.Open(*systemPath); err == nil {
			defer f.Close()
			sys, err = model.Import(f)
		}
	} else {
		err = fmt.Errorf("need -system file or -demo")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autocheck:", err)
		os.Exit(1)
	}

	var contracts map[string]*contract.Contract
	if *contractsPath != "" {
		f, err := os.Open(*contractsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autocheck:", err)
			os.Exit(1)
		}
		contracts, err = contract.Import(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "autocheck:", err)
			os.Exit(1)
		}
	}

	pipe := core.NewPipeline(0)
	var reg *obs.Registry
	if *metricsPath != "" || *bundlePath != "" {
		reg = obs.NewRegistry()
		pipe.Observe(reg)
	}
	if *traceOutPath != "" || *traceTxtPath != "" || *bundlePath != "" {
		pipe.Tracer = obs.NewTracer()
	}
	rep, err := pipe.Verify(sys, contracts, rte.Options{})
	// Artifacts are written even when verification fails below: the
	// metrics and spans of a failed run are exactly what gets debugged.
	writeArtifact(*metricsPath, func(w io.Writer) error {
		return obs.WritePrometheus(w, reg.Snapshot())
	})
	writeArtifact(*traceOutPath, pipe.Tracer.WriteChrome)
	writeArtifact(*traceTxtPath, pipe.Tracer.WriteTree)
	writeArtifact(*bundlePath, func(w io.Writer) error {
		b := &obs.Bundle{
			Version: obs.BundleVersion, Reason: "autocheck:verify",
			ConfigHash: sys.Hash(),
			Meta: map[string]string{
				"system": sys.Name,
				"ok":     fmt.Sprint(err == nil && rep != nil && rep.OK()),
			},
			Metrics: reg.Snapshot(),
		}
		b.Flight.Spans = pipe.Tracer.SpanEvents()
		b.Flight.SpanTotal = uint64(len(b.Flight.Spans))
		return b.Write(w)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "autocheck:", err)
		os.Exit(1)
	}
	if rep.Contracts != nil {
		fmt.Printf("contracts: %d connections checked, %d skipped, confidence %.2f\n",
			rep.Contracts.Checked, rep.Contracts.Skipped, rep.Contracts.Confidence)
		for _, v := range rep.Contracts.Violations {
			fmt.Println("  VIOLATION:", v)
		}
	}
	for _, e := range rep.ECUs {
		status := "OK"
		if !e.Schedulable {
			status = "UNSCHEDULABLE"
		}
		fmt.Printf("ECU %-22s util %.3f  %s\n", e.Name, e.Utilization, status)
		if *verbose {
			for _, r := range e.Results {
				fmt.Printf("    %-42s C=%-8v T=%-8v R=%v\n", r.Task.Name, r.Task.C, r.Task.T, r.WCRT)
			}
		}
	}
	for _, b := range rep.Buses {
		status := "OK"
		if !b.Schedulable {
			status = "UNSCHEDULABLE: " + b.Detail
		}
		fmt.Printf("bus %-22s %-8v load %.3f  %s\n", b.Name, b.Kind, b.Load, status)
	}
	for _, c := range rep.Chains {
		switch {
		case c.Err != "":
			fmt.Printf("chain %-20s ERROR: %s\n", c.Name, c.Err)
		case c.OK:
			fmt.Printf("chain %-20s bound %v <= budget %v  OK\n", c.Name, c.Bound, c.Budget)
		default:
			fmt.Printf("chain %-20s bound %v >  budget %v  VIOLATED\n", c.Name, c.Bound, c.Budget)
		}
	}
	for _, w := range rep.Warnings {
		fmt.Println("warning:", w)
	}
	if !rep.OK() {
		fmt.Println("\nVERIFICATION FAILED")
		os.Exit(3)
	}
	fmt.Println("\nverified: system is admissible")
}

// writeArtifact creates path and fills it with write. An empty path is a
// no-op; a failed write is fatal — a truncated artifact that looks valid
// is worse than an error.
func writeArtifact(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autocheck:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
