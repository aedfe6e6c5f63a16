package fault

import (
	"fmt"
	"sort"

	"autorte/internal/obs"
	"autorte/internal/par"
)

// Campaign-level virtual-time series: each scenario run samples its own
// platform on a virtual-time grid (rte.Platform.EnableSampling) and the
// campaign aggregates the per-run series into fleet-level distribution
// bands — availability and recovery *curves* across the fault space
// instead of end-state scalars.

// BandPoint is the distribution of one metric across campaign runs at
// one virtual-time grid point.
type BandPoint struct {
	At   int64   `json:"at_ns"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	N    int     `json:"n"` // runs contributing at this grid point
}

// Band is a fleet-level distribution series for one metric name.
type Band struct {
	Name   string      `json:"name"`
	Points []BandPoint `json:"points"`
}

// RunCampaignSeries is RunCampaign for sampled scenarios: run returns
// the scenario result plus the virtual-time series its sampler
// recorded. Results and series stay slot-indexed to scenarios. Like
// RunCampaign, an empty campaign is rejected rather than aggregated
// into empty bands.
func RunCampaignSeries(workers int, scenarios []Scenario, run func(Scenario) (Result, []obs.Series)) ([]Result, [][]obs.Series, error) {
	if len(scenarios) == 0 {
		return nil, nil, fmt.Errorf("fault: empty campaign: no scenarios to run")
	}
	results := make([]Result, len(scenarios))
	series := make([][]obs.Series, len(scenarios))
	par.ForEach(workers, len(scenarios), func(i int) {
		results[i], series[i] = run(scenarios[i])
	})
	return results, series, nil
}

// AggregateSeries folds the same-named series of every run into one
// distribution band. A run contributes its first series whose name
// matches; runs without one are skipped. Grid points are the union of
// all contributing grids, so runs sampled over different horizons still
// aggregate (N reports the coverage per point).
func AggregateSeries(perRun [][]obs.Series, name string) Band {
	byAt := map[int64][]float64{}
	for _, runSeries := range perRun {
		for _, s := range runSeries {
			if s.Name != name {
				continue
			}
			for _, pt := range s.Points {
				byAt[pt.At] = append(byAt[pt.At], pt.Value)
			}
			break
		}
	}
	grid := make([]int64, 0, len(byAt))
	for at := range byAt {
		grid = append(grid, at)
	}
	sort.Slice(grid, func(i, j int) bool { return grid[i] < grid[j] })
	band := Band{Name: name, Points: make([]BandPoint, 0, len(grid))}
	for _, at := range grid {
		vals := byAt[at]
		p := BandPoint{At: at, Min: vals[0], Max: vals[0], N: len(vals)}
		sum := 0.0
		for _, v := range vals {
			if v < p.Min {
				p.Min = v
			}
			if v > p.Max {
				p.Max = v
			}
			sum += v
		}
		p.Mean = sum / float64(len(vals))
		band.Points = append(band.Points, p)
	}
	return band
}
