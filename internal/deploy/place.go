package deploy

// Automatic replica placement: the search face of the fail-operational
// analysis. E13 compared hand-enumerated redundant candidates;
// PlaceReplicas derives the redundancy spec itself — how many replicas
// of which components, hot or cold, hosted where — by greedy marginal
// ascent over the same Cost the mapping searches minimize. Each scored
// configuration materializes its standbys (Replicate), binds the result
// once, sites the standbys (Place's first-fit) and refines the whole
// mapping through the incremental delta-evaluator path (descend →
// Prepared) on that one Bound, so the placement search pays
// O(dirty-ECU) per candidate move like every other search here.

import (
	"fmt"
	"slices"

	"autorte/internal/model"
)

// PlacementOptions bounds the replica-placement search.
type PlacementOptions struct {
	// Candidates are the components eligible for replication, each named
	// once; empty means every component of the seed system. The search
	// takes them in name order and leaves the caller's slice as it is.
	Candidates []string
	// MaxReplicas caps the instances (primary included) per candidate.
	// Default 2 — one standby each.
	MaxReplicas int
	// Modes are the standby modes the search may assign. Default:
	// passive first (cheap), then active (hot).
	Modes []model.ReplicaMode
	// ModesFor overrides Modes per component — e.g. forcing a detection
	// observer to hot standbys so its votes never lapse during resume.
	ModesFor map[string][]model.ReplicaMode
	// Deprecated: Workers is ignored; each descent round runs on the
	// caller.
	Workers int
	// DescendIters caps the mapping-refinement rounds per scored
	// configuration. Default 16.
	DescendIters int
}

func (o *PlacementOptions) fill(sys *model.System) {
	if o.MaxReplicas == 0 {
		o.MaxReplicas = 2
	}
	if len(o.Modes) == 0 {
		o.Modes = []model.ReplicaMode{model.StandbyPassive, model.StandbyActive}
	}
	if o.DescendIters == 0 {
		o.DescendIters = 16
	}
	o.Candidates = slices.Clone(o.Candidates) // sorted below; the caller's stays as it is
	if len(o.Candidates) == 0 {
		for _, c := range sys.Components {
			o.Candidates = append(o.Candidates, c.Name)
		}
	}
	slices.Sort(o.Candidates)
}

// Placement is one scored replica configuration: the materialized,
// fully mapped system plus the spec the search chose.
type Placement struct {
	// System carries the materialized standbys and the refined mapping.
	System  *model.System
	Metrics Metrics
	// Replicas and Modes record the chosen spec per candidate (instance
	// count including the primary; 1 = not replicated).
	Replicas map[string]int
	Modes    map[string]model.ReplicaMode
	// Evaluated counts the full configurations the search scored.
	Evaluated int
}

// PlaceReplicas searches the redundancy spec of sys under the
// survivability objective: starting from "nothing replicated", it
// repeatedly tries adding one replica to (or switching the mode of) each
// candidate, keeps the strictly best Cost improvement, and stops at a
// fixpoint. The seed must not contain materialized standbys — the search
// owns the whole spec. Deterministic: candidates in sorted name order,
// modes in option order, ties keep the incumbent.
//
// Multi-failure placement wants Constraints.Faults with Soft and
// IncludeSingletons set: Soft keeps the unreplicated seed scorable and
// IncludeSingletons makes every uncovered component count against
// Survivability, which (weighted by Objective.WAvail) is the gradient
// the search climbs.
func PlaceReplicas(sys *model.System, cons Constraints, obj Objective, opts PlacementOptions) (*Placement, error) {
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	for _, c := range sys.Components {
		if c.IsStandby() {
			return nil, fmt.Errorf("deploy: place replicas: seed already carries standby %s", c.Name)
		}
	}
	opts.fill(sys)
	for i, name := range opts.Candidates {
		if sys.Component(name) == nil {
			return nil, fmt.Errorf("deploy: place replicas: unknown candidate %q", name)
		}
		if i > 0 && name == opts.Candidates[i-1] {
			return nil, fmt.Errorf("deploy: place replicas: duplicate candidate %q", name)
		}
	}
	modesOf := func(name string) []model.ReplicaMode {
		if ms, ok := opts.ModesFor[name]; ok && len(ms) > 0 {
			return ms
		}
		return opts.Modes
	}
	counts := map[string]int{}
	modes := map[string]model.ReplicaMode{}
	for _, name := range opts.Candidates {
		counts[name] = 1
		modes[name] = modesOf(name)[0]
	}
	evaluated := 0
	score := func(counts map[string]int, modes map[string]model.ReplicaMode) (*model.System, Metrics, error) {
		evaluated++
		spec := make(map[string]model.Redundancy, len(opts.Candidates))
		for _, name := range opts.Candidates {
			if n := counts[name]; n > 1 {
				spec[name] = model.Redundancy{Replicas: n, Mode: modes[name]}
			} else {
				spec[name] = model.Redundancy{}
			}
		}
		rep, err := replicate(sys, spec)
		if err != nil {
			return nil, Metrics{}, err
		}
		ev := NewEvaluator(cons)
		b, err := ev.Bind(rep)
		if err != nil {
			return nil, Metrics{}, err
		}
		// Site the new standbys without disturbing the seed mapping, then
		// let the incremental descent refine everything together.
		prep, err := b.firstFit(rep, true)
		if err != nil {
			return nil, Metrics{}, err
		}
		mapping, m, err := descendFrom(ev, prep, obj, opts.DescendIters)
		if err != nil {
			return nil, Metrics{}, err
		}
		// rep is this configuration's own system: it takes the refined
		// mapping in place of a clone.
		rep.Mapping = mapping
		return rep, m, nil
	}
	bestSys, bestM, err := score(counts, modes)
	if err != nil {
		return nil, fmt.Errorf("deploy: place replicas: seed configuration unscorable: %w", err)
	}
	bestCost := bestM.Cost(obj)
	type cfg struct {
		comp  string
		count int
		mode  model.ReplicaMode
	}
	for {
		// One greedy round: every single-step spec change — one more
		// replica of a candidate, or a mode switch of an already
		// replicated one — scored against the incumbent.
		var moves []cfg
		for _, name := range opts.Candidates {
			for _, m := range modesOf(name) {
				if counts[name] < opts.MaxReplicas {
					moves = append(moves, cfg{name, counts[name] + 1, m})
				}
				if counts[name] > 1 && m != modes[name] {
					moves = append(moves, cfg{name, counts[name], m})
				}
			}
		}
		var winSys *model.System
		var winM Metrics
		var win cfg
		winCost := bestCost
		for _, mv := range moves {
			prevCount, prevMode := counts[mv.comp], modes[mv.comp]
			counts[mv.comp], modes[mv.comp] = mv.count, mv.mode
			candSys, candM, err := score(counts, modes)
			counts[mv.comp], modes[mv.comp] = prevCount, prevMode
			if err != nil {
				continue // unplaceable spec: not a usable direction
			}
			// Strict improvement only; earlier moves win ties, so the
			// result is independent of map iteration and scheduling.
			if cost := candM.Cost(obj); cost < winCost {
				winSys, winM, win, winCost = candSys, candM, mv, cost
			}
		}
		if winSys == nil {
			break // fixpoint: no spec change improves the cost
		}
		counts[win.comp], modes[win.comp] = win.count, win.mode
		bestSys, bestM, bestCost = winSys, winM, winCost
	}
	out := &Placement{
		System: bestSys, Metrics: bestM, Evaluated: evaluated,
		Replicas: counts, Modes: modes,
	}
	return out, nil
}
