package experiments

import (
	"fmt"

	"autorte/internal/rte"
	"autorte/internal/sim"
)

// e12SampleChain registers the service-delivery gauge and arms the
// platform sampler on the common series grid.
func e12SampleChain(p *rte.Platform, extra ...string) {
	gaugeChainFinishes(p)
	keep := map[string]bool{"chain_finishes": true}
	for _, name := range extra {
		keep[name] = true
	}
	p.EnableSampling(e11SeriesStep, func(name string) bool { return keep[name] })
}

// E12RecoverySeries replays the two E12 recovery scenarios with the
// platform sampler armed, rendering service delivery and recovery as
// virtual-time curves: the protected CAN chain degrading under sustained
// corruption, and the FlexRay chain losing channel A and resuming on the
// redundant channel after failover.
func E12RecoverySeries(cfg E12Config) (*Table, error) {
	tab := &Table{
		Title:   "E12 E2E protection: recovery time series (50ms virtual-time grid)",
		Columns: []string{"scenario", "t", "deg", "failovers", "finishes", "delivery/50ms"},
		Notes: []string{
			"can corrupt: every post-inject frame is rejected by E2E checks, the ladder",
			"restarts the consumer and degrades — delivery stays down (fail-silent).",
			"flexray loss: invalid qualification fails the streams over to channel B and",
			"delivery returns to the nominal 5 completions per 50ms window.",
		},
	}

	corrupt, _, loss, err := e12RecoveryScenarios(cfg)
	if err != nil {
		return nil, err
	}
	e12SampleChain(corrupt, "health_degradation_level")
	corrupt.Run(cfg.Horizon)
	if err := e12SeriesRows(tab, corrupt, "can corrupt", true); err != nil {
		return nil, err
	}
	e12SampleChain(loss, "e2e_failovers_total")
	loss.Run(cfg.Horizon)
	if err := e12SeriesRows(tab, loss, "flexray loss", false); err != nil {
		return nil, err
	}
	return tab, nil
}

// e12SeriesRows folds one sampled platform into table rows. Series are
// joined on the grid of chain_finishes; metrics registered mid-run
// (e.g. the failover counter on first failover) show "-" until their
// first sample.
func e12SeriesRows(tab *Table, p *rte.Platform, scenario string, hasDeg bool) error {
	byName := map[string]map[int64]float64{}
	for _, s := range p.Sampler().Series() {
		at := map[int64]float64{}
		for _, pt := range s.Points {
			at[pt.At] = pt.Value
		}
		byName[s.Name] = at
	}
	cell := func(name string, at int64, on bool) string {
		if vals, ok := byName[name]; on && ok {
			if v, ok := vals[at]; ok {
				return fmt.Sprintf("%.0f", v)
			}
		}
		return "-"
	}
	var grid []int64
	for _, s := range p.Sampler().Series() {
		if s.Name == "chain_finishes" {
			for _, pt := range s.Points {
				grid = append(grid, pt.At)
			}
		}
	}
	if len(grid) == 0 {
		return fmt.Errorf("e12 series: %s produced no chain_finishes samples", scenario)
	}
	prev := 0.0
	for _, at := range grid {
		fin := byName["chain_finishes"][at]
		tab.Add(scenario, sim.Time(at),
			cell("health_degradation_level", at, hasDeg),
			cell("e2e_failovers_total", at, true),
			fmt.Sprintf("%.0f", fin), fmt.Sprintf("%.0f", fin-prev))
		prev = fin
	}
	return nil
}
