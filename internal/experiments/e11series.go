package experiments

import (
	"fmt"
	"sort"

	"autorte/internal/fault"
	"autorte/internal/obs"
	"autorte/internal/sim"
)

// e11SeriesStep is the virtual-time sampling grid of the series
// experiments: coarse enough to keep the tables readable, fine enough
// to resolve the escalation ladder's cooldowns.
var e11SeriesStep = sim.MS(50)

// e11SeriesMetrics are the sampled series the campaign aggregates:
// the degradation level (recovery curve) and the cumulative actuation
// completions (service-delivery curve). Both are single unlabeled
// series per run, so fleet aggregation is unambiguous.
func e11SeriesMatch(name string) bool {
	return name == "health_degradation_level" || name == "chain_finishes"
}

// E11RecoverySeries re-runs the fault-injection campaign with every
// scenario platform sampled on a common virtual-time grid, then folds
// the per-run series into fleet-level distribution bands: instead of
// end-state scalars, the table shows *when* the fleet degrades and how
// service delivery evolves through detection, escalation and recovery.
func E11RecoverySeries(cfg E11Config) (*Table, error) {
	tab := &Table{
		Title: "E11 fault-injection campaign: virtual-time recovery curves (fleet bands)",
		Columns: []string{"t", "deg min", "deg mean", "deg max",
			"finishes mean", "delivery/50ms", "runs"},
		Notes: []string{
			"each scenario platform is sampled every 50ms of virtual time; bands fold the",
			"per-run series across the whole campaign (min/mean/max at each grid point).",
			"deg: graceful-degradation level 0=normal 1=degraded 2=limp-home 3=safe-stop.",
			"delivery/50ms: mean actuation completions per grid window — the dip after",
			"100-130ms is the injected outage, the climb back is the recovery curve.",
		},
	}
	classes := []fault.FaultClass{
		fault.FaultSensorSilent, fault.FaultSensorStuck, fault.FaultSensorNoise,
		fault.FaultCANBurst, fault.FaultOverrun,
	}
	scenarios := fault.Sweep(classes, cfg.InjectTimes, cfg.TransientWindow)
	scenarios = append(scenarios, fault.Scenario{
		Name: "sensor-silent@100ms/permanent", Class: fault.FaultSensorSilent,
		InjectAt: 100 * sim.Millisecond, Until: sim.Infinity,
	})
	inst := &e11Instrumentation{sampleStep: e11SeriesStep, match: e11SeriesMatch}
	perRun, err := fault.RunCampaign(cfg.Workers, scenarios, func(s fault.Scenario) []obs.Series {
		_, series := runE11Instrumented(cfg, s, inst)
		return series
	})
	if err != nil {
		return nil, err
	}
	deg := fault.AggregateSeries(perRun, "health_degradation_level")
	fin := fault.AggregateSeries(perRun, "chain_finishes")
	if len(deg.Points) == 0 || len(fin.Points) == 0 {
		return nil, fmt.Errorf("e11 series: campaign produced no sampled series")
	}
	finAt := map[int64]fault.BandPoint{}
	for _, pt := range fin.Points {
		finAt[pt.At] = pt
	}
	prevFin := 0.0
	for _, pt := range deg.Points {
		f := finAt[pt.At]
		tab.Add(sim.Time(pt.At), fmt.Sprintf("%.0f", pt.Min),
			fmt.Sprintf("%.2f", pt.Mean), fmt.Sprintf("%.0f", pt.Max),
			fmt.Sprintf("%.1f", f.Mean), fmt.Sprintf("%.1f", f.Mean-prevFin), pt.N)
		prevFin = f.Mean
	}
	return tab, nil
}

// E11SafeStopBundle runs the campaign's permanent sensor-silent
// scenario — the one that climbs the whole escalation ladder — with the
// health monitor's automatic black-box dumps captured, and returns the
// bundles in cut order (severe escalations first, the terminal
// safe-stop dump last). When path is non-empty the final safe-stop
// bundle is also serialized there, ready for autodiag.
func E11SafeStopBundle(cfg E11Config, path string) ([]*obs.Bundle, error) {
	var bundles []*obs.Bundle
	inst := &e11Instrumentation{
		sampleStep: e11SeriesStep, match: e11SeriesMatch,
		bundleSink: func(b *obs.Bundle) { bundles = append(bundles, b) },
	}
	s := fault.Scenario{
		Name: "sensor-silent@100ms/permanent", Class: fault.FaultSensorSilent,
		InjectAt: 100 * sim.Millisecond, Until: sim.Infinity,
	}
	res, _ := runE11Instrumented(cfg, s, inst)
	if len(bundles) == 0 {
		return nil, fmt.Errorf("e11 safe-stop: no bundle cut (final state %s)", res.FinalState)
	}
	last := bundles[len(bundles)-1]
	if len(last.Reason) < len("safe-stop") || last.Reason[:len("safe-stop")] != "safe-stop" {
		return nil, fmt.Errorf("e11 safe-stop: last bundle reason %q, want safe-stop", last.Reason)
	}
	if path != "" {
		if err := last.WriteFile(path); err != nil {
			return nil, err
		}
	}
	return bundles, nil
}

// E11EscalationTimeline renders the escalation ladder of the permanent
// scenario as recorded by the flight recorder's history ring: every
// escalation attempt, degradation transition and the terminal safe-stop,
// with the black-box bundles the monitor cut along the way.
func E11EscalationTimeline(cfg E11Config) (*Table, error) {
	bundles, err := E11SafeStopBundle(cfg, "")
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "E11 escalation timeline: flight-recorder history of the permanent fault",
		Columns: []string{"t", "event", "detail"},
		Notes: []string{
			"read from the terminal safe-stop bundle's history ring; the bundle rows mark",
			"where the monitor cut automatic black-box dumps (rung >= restart-partition).",
		},
	}
	final := bundles[len(bundles)-1]
	for _, ev := range final.Flight.History {
		tab.Add(sim.Time(ev.At), ev.Kind, ev.Detail)
	}
	sort.SliceStable(bundles, func(i, j int) bool { return bundles[i].At < bundles[j].At })
	for _, b := range bundles {
		tab.Add(sim.Time(b.At), "bundle", b.Reason)
	}
	return tab, nil
}
