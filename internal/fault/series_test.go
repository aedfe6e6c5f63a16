package fault

import (
	"testing"

	"autorte/internal/obs"
)

func TestAggregateSeriesBands(t *testing.T) {
	perRun := [][]obs.Series{
		{{Name: "deg", Points: []obs.SeriesPoint{{At: 0, Value: 0}, {At: 10, Value: 2}}}},
		{{Name: "deg", Points: []obs.SeriesPoint{{At: 0, Value: 0}, {At: 10, Value: 1}, {At: 20, Value: 3}}}},
		{{Name: "other", Points: []obs.SeriesPoint{{At: 0, Value: 99}}}}, // no deg: skipped
	}
	band := AggregateSeries(perRun, "deg")
	if band.Name != "deg" || len(band.Points) != 3 {
		t.Fatalf("band = %+v", band)
	}
	// Union grid, sorted; N reports per-point coverage.
	p0, p1, p2 := band.Points[0], band.Points[1], band.Points[2]
	if p0.At != 0 || p0.N != 2 || p0.Min != 0 || p0.Max != 0 || p0.Mean != 0 {
		t.Fatalf("point 0 = %+v", p0)
	}
	if p1.At != 10 || p1.N != 2 || p1.Min != 1 || p1.Max != 2 || p1.Mean != 1.5 {
		t.Fatalf("point 10 = %+v", p1)
	}
	if p2.At != 20 || p2.N != 1 || p2.Min != 3 || p2.Max != 3 || p2.Mean != 3 {
		t.Fatalf("point 20 = %+v", p2)
	}
}

func TestAggregateSeriesTakesFirstMatchPerRun(t *testing.T) {
	perRun := [][]obs.Series{{
		{Name: "m", Labels: []obs.Label{{Key: "a", Value: "1"}}, Points: []obs.SeriesPoint{{At: 0, Value: 5}}},
		{Name: "m", Labels: []obs.Label{{Key: "b", Value: "2"}}, Points: []obs.SeriesPoint{{At: 0, Value: 7}}},
	}}
	band := AggregateSeries(perRun, "m")
	if len(band.Points) != 1 || band.Points[0].Mean != 5 || band.Points[0].N != 1 {
		t.Fatalf("band = %+v (want only the first matching series)", band)
	}
}
