// Incremental re-verification: design-space exploration mutates one or two
// mapping entries per candidate, yet a full Verify re-derives every route,
// task set and report. Reverify derives what a mapping change can affect —
// the source and target ECUs of every moved component and the buses a
// changed route crosses, before or after — and runs the verifier's update
// step on just those; the step re-evaluates only the constraint chains
// that read a dirty ECU or bus. Everything mapping-independent (runnable
// protos, route templates, ECU-pair paths, chain stage plans, the contract
// report) is computed once, when the state is built.
package core

import (
	"fmt"
	"slices"
	"sort"

	"autorte/internal/obs"
	"autorte/internal/vfb"
)

// Reverify re-verifies the system under a mutated mapping, re-analyzing
// only the ECUs, buses and chains the moves can affect. mapping must cover
// exactly the mapped components of the original system. On success the
// system's Mapping reflects the new deployment and the retained state
// advances; on error the retained state still describes the previous
// verified mapping. The report, and the error for a mapping onto an
// unknown or unreachable ECU, is the one a fresh Verify of the new
// mapping returns.
func (inc *Incremental) Reverify(mapping map[string]string) (*Report, error) {
	defer inc.p.stage(nil, "verify/reverify", "")()
	inc.reverifies.Add(1)
	if len(mapping) != len(inc.mapping) {
		return nil, fmt.Errorf("core: incremental reverify: mapping has %d entries, want %d", len(mapping), len(inc.mapping))
	}
	// Sorted component names: with several bad entries the returned error
	// must not depend on map iteration order.
	comps := make([]string, 0, len(mapping))
	for comp := range mapping {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	var moved []string
	for _, comp := range comps {
		old, ok := inc.mapping[comp]
		if !ok {
			return nil, fmt.Errorf("core: incremental reverify: unknown component %s", comp)
		}
		ecu := mapping[comp]
		if ecu == old {
			continue
		}
		if _, ok := inc.ecuIdx[ecu]; !ok {
			return nil, fmt.Errorf("mapping of %s references unknown ECU %q", comp, ecu)
		}
		moved = append(moved, comp)
	}
	if len(moved) == 0 {
		rep := inc.Report()
		inc.reused.Add(uint64(len(rep.ECUs) + len(rep.Buses) + len(rep.Chains)))
		return rep, nil
	}

	// Commit the moves: route materialization and the update step read
	// the mapping. On error below, restore before returning.
	ecuDirty := make([]bool, len(inc.sys.ECUs))
	prev := make([]string, len(moved))
	for i, comp := range moved {
		prev[i] = inc.mapping[comp]
		ecuDirty[inc.ecuIdx[prev[i]]] = true
		ecuDirty[inc.ecuIdx[mapping[comp]]] = true
		inc.place(comp, mapping[comp])
	}
	restore := func() {
		for i, comp := range moved {
			inc.place(comp, prev[i])
		}
	}

	// Re-materialize the routes of every connector touching a moved
	// component, in declaration order so the first unroutable connector
	// is the one Verify reports; buses a changed route crossed (before or
	// after) are dirty.
	var routes []vfb.Route // copied from inc.routes on the first change
	busDirty := make([]bool, len(inc.sys.Buses))
	for ti, t := range inc.tmpls {
		if !slices.Contains(moved, t.Conn.FromSWC) && !slices.Contains(moved, t.Conn.ToSWC) {
			continue
		}
		r, err := t.Materialize(inc.mapping, inc.paths)
		if err != nil {
			restore()
			return nil, err
		}
		old := inc.routes[ti]
		if r == old {
			continue
		}
		for b, bus := range inc.sys.Buses {
			if old.Crosses(bus.Name) || r.Crosses(bus.Name) {
				busDirty[b] = true
			}
		}
		if routes == nil {
			routes = slices.Clone(inc.routes)
		}
		routes[ti] = r
	}
	if routes == nil {
		routes = inc.routes
	}

	var ecus, buses []int
	for _, e := range inc.ecuOrder {
		if ecuDirty[e] {
			ecus = append(ecus, e)
		}
	}
	for b, dirty := range busDirty {
		if dirty {
			buses = append(buses, b)
		}
	}
	if err := inc.update(nil, routes, ecus, buses, false); err != nil {
		restore()
		return nil, err
	}
	return inc.Report(), nil
}

// place maps comp onto ecu in the retained mapping and the system.
func (inc *Incremental) place(comp, ecu string) {
	inc.mapping[comp] = ecu
	inc.sys.Mapping[comp] = ecu
}

// Stats reports how many per-item analyses Reverify calls re-ran versus
// served from retained state.
func (inc *Incremental) Stats() (recomputed, reused uint64) {
	return inc.recomputed.Load(), inc.reused.Load()
}

// Observe registers the incremental layer's reuse counters and the
// hit/miss/size series of its CAN analysis memo (cache="can").
func (inc *Incremental) Observe(reg *obs.Registry) {
	reg.CounterFunc("incremental_reverify_total", "Incremental re-verification passes.", inc.reverifies.Load)
	reg.CounterFunc("incremental_recomputed_total", "Per-item analyses re-run by incremental re-verification.", inc.recomputed.Load)
	reg.CounterFunc("incremental_reused_total", "Per-item results served from retained state by incremental re-verification.", inc.reused.Load)
	l := obs.Label{Key: "cache", Value: "can"}
	reg.CounterFunc("analysis_cache_hits_total", "Memoized analysis lookups served from cache.", inc.canHits.Load, l)
	reg.CounterFunc("analysis_cache_misses_total", "Memoized analysis lookups that ran the analysis.", inc.canMisses.Load, l)
	reg.GaugeFunc("analysis_cache_entries", "Distinct problems held by the analysis cache.", func() float64 { return float64(inc.canEntries.Load()) }, l)
}
