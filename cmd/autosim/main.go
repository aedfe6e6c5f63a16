// Command autosim simulates a deployed system description (the JSON
// exchange format of internal/model) on the generated RTE platform and
// prints per-runnable response-time statistics and per-bus traffic.
//
// Usage:
//
//	autosim -system vehicle.json [-horizon 1s] [-isolation none|server|table]
//	        [-budgets] [-csv trace.csv] [-health]
//
// With -demo, autosim generates the canonical four-DAS vehicle instead of
// reading a file (useful as a smoke test and for inspecting the format:
// add -export to dump the generated system as JSON).
//
// Observability artifacts: -trace-out converts the virtual-time event
// trace to Chrome trace-event JSON loadable in Perfetto (one viewer lane
// per source, a "run" slice per execution slice, instant markers for
// aborts, misses, drops, errors and recoveries); -metrics dumps
// the platform registry (kernel events, cache and pool counters) in
// Prometheus text format; -dlt enables the DLT-style structured event
// log for the run and writes it as text; -bundle serializes the whole
// run as a diagnostic bundle for autodiag, and -sample additionally
// records every metric on a virtual-time grid into the bundle's series.
//
// Reliability: -health supervises every component with the default health
// policy (error qualification, recovery escalation) and prints partition
// health after the run; -faults selects fault classes ("all" or a
// comma-separated subset such as "ecu-kill,can-burst") and runs the
// matching fault-injection campaign tables — E11 for the
// sensor/bus/overrun classes, E12 for the communication classes, E13 and
// E14 for ecu-kill — then exits. An unknown class name fails fast and prints the
// valid class list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"autorte/internal/experiments"
	"autorte/internal/fault"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/protection"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/workload"
)

func main() {
	var (
		systemPath = flag.String("system", "", "system JSON (exchange format)")
		horizon    = flag.Duration("horizon", time.Second, "virtual simulation horizon")
		isolation  = flag.String("isolation", "none", "timing isolation: none|server|table")
		budgets    = flag.Bool("budgets", false, "enforce per-job execution budgets")
		csvPath    = flag.String("csv", "", "write the full event trace as CSV")
		gantt      = flag.Duration("gantt", 0, "render an ASCII Gantt chart of the first <duration> of the run")
		demo       = flag.Bool("demo", false, "simulate the generated demo vehicle")
		export     = flag.Bool("export", false, "with -demo: print the system JSON and exit")
		seed       = flag.Uint64("seed", 1, "workload generator seed (with -demo)")
		traceOut   = flag.String("trace-out", "", "write the event trace as Chrome trace JSON to file")
		metricsOut = flag.String("metrics", "", "write platform metrics (Prometheus text format) to file")
		dltOut     = flag.String("dlt", "", "enable the DLT event log and write it as text to file")
		healthOn   = flag.Bool("health", false, "supervise every component with the default health policy and report partition health")
		faults     = flag.String("faults", "", "run the fault-injection campaign tables for these fault classes (\"all\" or a comma-separated subset), then exit")
		bundleOut  = flag.String("bundle", "", "write a diagnostic bundle of the run (inspect with autodiag)")
		sample     = flag.Duration("sample", 0, "sample all metrics on this virtual-time grid into the bundle's series")
	)
	flag.Parse()

	if *faults != "" {
		if err := runFaultTables(*faults); err != nil {
			fatal(err)
		}
		return
	}

	sys, err := loadSystem(*systemPath, *demo, *seed)
	if err != nil {
		fatal(err)
	}
	if *export {
		if err := model.Export(os.Stdout, sys); err != nil {
			fatal(err)
		}
		return
	}
	opts := rte.Options{EnforceBudgets: *budgets}
	switch *isolation {
	case "none":
	case "server":
		opts.Isolation = rte.ServerPerSupplier
		opts.ServerKind = protection.Deferrable
	case "table":
		opts.Isolation = rte.TablePerSupplier
	default:
		fatal(fmt.Errorf("unknown isolation %q", *isolation))
	}
	p, err := rte.Build(sys, opts)
	if err != nil {
		fatal(err)
	}
	if *dltOut != "" {
		p.EnableDLT(obs.LevelInfo)
	}
	if *sample > 0 {
		p.EnableSampling(sim.Duration(*sample), nil)
	}
	var mon *health.Monitor
	if *healthOn {
		mon = health.NewMonitor(p, health.MonitorOptions{})
		for _, c := range sys.Components {
			if len(c.Runnables) > 0 {
				mon.MustProtect(c.Name, health.Policy{})
			}
		}
	}
	p.Run(sim.Duration(*horizon))

	fmt.Printf("simulated %s of virtual time (%d events)\n\n", *horizon, p.K.Executed())
	fmt.Println("per-runnable response times:")
	var names []string
	for _, c := range sys.Components {
		for i := range c.Runnables {
			names = append(names, c.Name+"."+c.Runnables[i].Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		st := p.Stats(n)
		if st.SampleCount == 0 {
			continue
		}
		fmt.Printf("  %-40s %s\n", n, st)
	}
	fmt.Println("\nECU utilization:")
	for _, e := range sys.ECUs {
		if cpu := p.CPU(e.Name); cpu != nil && cpu.Utilization() > 0 {
			fmt.Printf("  %-20s %.3f\n", e.Name, cpu.Utilization())
		}
	}
	for _, b := range sys.Buses {
		if cb := p.CANBus(b.Name); cb != nil {
			fmt.Printf("\nCAN bus %s: load %.3f, retransmissions %d\n", b.Name, cb.Load(), cb.Retransmissions())
		}
	}
	if n := p.Errors.Records(); len(n) > 0 {
		fmt.Printf("\nplatform errors reported: %d\n", len(n))
	}
	if mon != nil {
		fmt.Println("\npartition health:")
		for _, st := range mon.Status() {
			fmt.Printf("  %-30s %-12s rung=%-16s episodes=%d attempts=%d\n",
				st.SWC, st.State, st.Rung, st.Episodes, st.Attempts)
		}
	}
	if *gantt > 0 {
		fmt.Println("\nexecution timeline ('#' running, '!' miss, 'x' abort):")
		res := sim.Duration(*gantt) / 100
		if res < 1 {
			res = 1
		}
		if err := trace.Gantt(os.Stdout, p.Trace, nil, 0, sim.Duration(*gantt), res); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		writeArtifact(*csvPath, p.Trace.WriteCSV)
		fmt.Printf("\ntrace written to %s (%d records)\n", *csvPath, len(p.Trace.Records))
	}
	writeArtifact(*traceOut, p.Trace.WriteChrome)
	writeArtifact(*metricsOut, func(w io.Writer) error {
		return obs.WritePrometheus(w, p.Metrics.Snapshot())
	})
	writeArtifact(*dltOut, p.DLT.WriteText)
	writeArtifact(*bundleOut, p.Bundle("autosim:end-of-run").Write)
	// Exit non-zero when deadlines were missed, for scripting.
	if p.Trace.Count(trace.Miss, "") > 0 {
		fmt.Printf("\nDEADLINE MISSES: %d\n", p.Trace.Count(trace.Miss, ""))
		os.Exit(3)
	}
}

// runFaultTables parses the -faults class selection and renders every
// campaign table whose swept classes intersect it: E11 for the sensor,
// bus-burst and overrun classes, E12 for the communication classes, E13
// and E14 (the fail-operational deployment studies) for ecu-kill. A mistyped class
// name fails fast here — ParseClasses' error lists every valid name —
// instead of silently sweeping nothing.
func runFaultTables(selection string) error {
	classes, err := fault.ParseClasses(selection)
	if err != nil {
		return err
	}
	selected := map[fault.FaultClass]bool{}
	for _, c := range classes {
		selected[c] = true
	}
	any := func(cs ...fault.FaultClass) bool {
		for _, c := range cs {
			if selected[c] {
				return true
			}
		}
		return false
	}
	var runs []func() (*experiments.Table, error)
	if any(fault.FaultSensorSilent, fault.FaultSensorStuck, fault.FaultSensorNoise,
		fault.FaultCANBurst, fault.FaultOverrun) {
		for _, run := range []func(experiments.E11Config) (*experiments.Table, error){
			experiments.E11FaultCampaign, experiments.E11LimpHome,
		} {
			run := run
			runs = append(runs, func() (*experiments.Table, error) { return run(experiments.DefaultE11()) })
		}
	}
	if any(fault.FaultCommCorrupt, fault.FaultCommMasquerade, fault.FaultCommDrop,
		fault.FaultCommDuplicate, fault.FaultCommDelay, fault.FaultCommResequence) {
		for _, run := range []func(experiments.E12Config) (*experiments.Table, error){
			experiments.E12DetectionCoverage, experiments.E12Overhead, experiments.E12Recovery,
		} {
			run := run
			runs = append(runs, func() (*experiments.Table, error) { return run(experiments.DefaultE12()) })
		}
	}
	if any(fault.FaultECUKill) {
		for _, run := range []func(experiments.E13Config) (*experiments.Table, error){
			experiments.E13Availability, experiments.E13Curve,
		} {
			run := run
			runs = append(runs, func() (*experiments.Table, error) { return run(experiments.DefaultE13()) })
		}
		for _, run := range []func(experiments.E14Config) (*experiments.Table, error){
			experiments.E14Observer, experiments.E14Switchover, experiments.E14Placement,
		} {
			run := run
			runs = append(runs, func() (*experiments.Table, error) { return run(experiments.DefaultE14()) })
		}
	}
	for _, run := range runs {
		tab, err := run()
		if err != nil {
			return err
		}
		tab.Render(os.Stdout)
	}
	return nil
}

func loadSystem(path string, demo bool, seed uint64) (*model.System, error) {
	if demo {
		return workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
	}
	if path == "" {
		return nil, fmt.Errorf("need -system file or -demo")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return model.Import(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autosim:", err)
	os.Exit(1)
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
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
