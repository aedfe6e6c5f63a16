package deploy

// The k-of-n fault model behind the fail-operational analysis. The v1
// redCheck hard-coded the fault universe to "any single hosted ECU
// dies"; FaultModel generalizes it to explicit loss units (ECU sets,
// bus channels, correlated ECU+bus failures) and to any k of those
// units failing concurrently. The zero value reproduces the v1 sweep
// bit-exactly — same events, same violation strings, same
// Survivability fraction — so existing callers and the DeepEqual
// identity with the reference sweep are untouched.
//
// Everything the model resolves without looking at a mapping is
// resolved when the redCheck is built, once per Bind: the effective
// replica groups, the malformed-unit violations, and the event universe
// as flat lists of the ECUs each event takes out of service, with bus
// isolation folded in. The explicit universe is fixed by Losses. The
// default universe depends on which ECUs host anything, so it is
// resolved over every ECU and its combinations up to MaxConcurrent, and
// a candidate sweeps the events whose ECUs all host something; a move
// that empties or occupies an ECU switches exactly the events containing
// it. Scoring runs RTA only under RequireSchedulable: Bound.computeECU
// skips the task set otherwise, and the fail-over RTA is gated the same
// way.

import (
	"fmt"
	"strings"
)

// LossKind classifies one loss unit of the fault model.
type LossKind uint8

const (
	// LossECU takes down the named ECUs: their hosted instances stop.
	LossECU LossKind = iota
	// LossBus takes down the named bus channels: an ECU attached only
	// to lost channels is isolated, which the analysis treats as losing
	// its hosted instances (they run but cannot deliver).
	LossBus
	// LossECUAndBus is a correlated failure taking down both the named
	// ECUs and the named bus channels in one event (a power-domain or
	// connector-housing fault).
	LossECUAndBus
)

func (k LossKind) String() string {
	switch k {
	case LossECU:
		return "ecu"
	case LossBus:
		return "bus"
	case LossECUAndBus:
		return "ecu+bus"
	default:
		return fmt.Sprintf("LossKind(%d)", uint8(k))
	}
}

// Loss is one atomic loss unit: the hardware one fault event removes.
type Loss struct {
	Kind  LossKind
	ECUs  []string // required for LossECU and LossECUAndBus
	Buses []string // required for LossBus and LossECUAndBus
}

// FaultModel configures the survivability sweep of the fail-operational
// analysis. The zero value is PR 9's model: every single hosted ECU
// fails alone, and any uncovered event is a hard feasibility violation.
type FaultModel struct {
	// MaxConcurrent is k: the sweep covers every combination of up to k
	// loss units failing together. Values below 2 mean single failures
	// only (the v1 sweep).
	MaxConcurrent int
	// Losses enumerates the loss units. Empty means one LossECU unit
	// per hosted ECU, derived from the candidate mapping.
	Losses []Loss
	// Soft prices uncovered events through Survivability (and the
	// objective's WAvail term) instead of rejecting the mapping. Replica
	// anti-affinity and malformed Losses stay hard violations. This is
	// the setting automatic placement searches under: an unreplicated
	// seed must be scorable, not infeasible.
	Soft bool
	// IncludeSingletons scores unreplicated components as replica groups
	// of one, so every (event, component) pair an event kills without a
	// promotable standby counts against Survivability. This gives a
	// placement search a gradient from "nothing replicated" toward full
	// coverage; combine with Soft.
	IncludeSingletons bool
}

// explicit reports whether the check sweeps the Losses universe rather
// than the default one derived from the candidate mapping.
func (rc *redCheck) explicit() bool { return len(rc.cons.Faults.Losses) > 0 }

// resolveEvents resolves the explicit Losses universe against the bound
// topology: every well-formed unit, then every combination of
// 2..MaxConcurrent units in lexicographic unit order, each with the ECUs
// it takes out of service; malformed units land in rc.bad.
func (rc *redCheck) resolveEvents() {
	units := rc.lossUnits()
	rc.labels = make([]string, 0, len(units))
	var lost []int
	add := func(u *lossUnit) {
		lost = u.lost(lost[:0], rc.ecus)
		rc.addEvent(lost...)
		rc.labels = append(rc.labels, u.label)
	}
	for i := range units {
		add(&units[i])
	}
	eachCombo(len(units), rc.cons.Faults.MaxConcurrent, func(idx []int) {
		u := mergeUnits(units, idx)
		add(&u)
	})
}

// defaultEvents resolves the default universe over every ECU: each ECU
// alone (declaration order), then every combination of 2..MaxConcurrent
// ECUs in lexicographic order. A candidate sweeps the events whose ECUs
// all host something — restricted to the hosted ECUs, the order is the
// same lexicographic one.
func (rc *redCheck) defaultEvents() {
	for e := range rc.ecus {
		rc.addEvent(e)
	}
	eachCombo(len(rc.ecus), rc.cons.Faults.MaxConcurrent, func(idx []int) { rc.addEvent(idx...) })
}

// eachCombo calls f with every combination of 2..k elements of 0..n-1,
// by size, each size in lexicographic order.
func eachCombo(n, k int, f func(idx []int)) {
	for size := 2; size <= min(k, n); size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for ok := true; ok; ok = nextCombo(idx, n) {
			f(idx)
		}
	}
}

// nextCombo advances idx to the next lexicographic combination of
// len(idx) elements of 0..n-1, reporting false after the last one.
func nextCombo(idx []int, n int) bool {
	size := len(idx)
	i := size - 1
	for i >= 0 && idx[i] == n-size+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < size; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// lossUnit is one well-formed loss unit (or a union of them): the dead
// ECUs by bound index and the lost channels by name.
type lossUnit struct {
	label string
	dead  []bool
	buses map[string]bool
}

// lost appends to dst the ECUs the unit takes out of service,
// ascending: dead outright, or attached to channels that are all lost.
func (u *lossUnit) lost(dst []int, ecus []boundECU) []int {
	for ei := range ecus {
		if u.dead[ei] || u.isolates(&ecus[ei]) {
			dst = append(dst, ei)
		}
	}
	return dst
}

// isolates reports whether the unit loses every channel of an ECU that
// has any.
func (u *lossUnit) isolates(e *boundECU) bool {
	if len(u.buses) == 0 || len(e.buses) == 0 {
		return false
	}
	for _, b := range e.buses {
		if !u.buses[b] {
			return false
		}
	}
	return true
}

// lossUnits resolves the explicit loss units against the bound topology.
// Malformed units (wrong fields for the kind, unknown names) are recorded
// as hard violations — a misconfigured fault model must not silently
// pass as "survived".
func (rc *redCheck) lossUnits() []lossUnit {
	ecus := rc.ecus
	ecuIdx := make(map[string]int, len(ecus))
	busKnown := map[string]bool{}
	for i := range ecus {
		ecuIdx[ecus[i].name] = i
		for _, b := range ecus[i].buses {
			busKnown[b] = true
		}
	}
	bad := func(format string, args ...any) {
		rc.bad = append(rc.bad, fmt.Sprintf(format, args...))
	}
	var units []lossUnit
	for li, l := range rc.cons.Faults.Losses {
		wantECUs, wantBuses := false, false
		switch l.Kind {
		case LossECU:
			wantECUs = true
		case LossBus:
			wantBuses = true
		case LossECUAndBus:
			wantECUs, wantBuses = true, true
		default:
			bad("fault model: loss %d has unknown kind %v", li, l.Kind)
			continue
		}
		if wantECUs != (len(l.ECUs) > 0) || wantBuses != (len(l.Buses) > 0) {
			bad("fault model: %v loss %d must name %s", l.Kind, li, lossWants(wantECUs, wantBuses))
			continue
		}
		u := lossUnit{dead: make([]bool, len(ecus)), buses: map[string]bool{}}
		ok := true
		for _, name := range l.ECUs {
			ei, known := ecuIdx[name]
			if !known {
				bad("fault model: loss %d names unknown ECU %q", li, name)
				ok = false
				continue
			}
			u.dead[ei] = true
		}
		for _, name := range l.Buses {
			if !busKnown[name] {
				bad("fault model: loss %d names unknown bus %q", li, name)
				ok = false
				continue
			}
			u.buses[name] = true
		}
		if !ok {
			continue
		}
		u.label = strings.Join(append(append([]string{}, l.ECUs...), l.Buses...), "+")
		units = append(units, u)
	}
	return units
}

func lossWants(ecus, buses bool) string {
	switch {
	case ecus && buses:
		return "ECUs and buses"
	case ecus:
		return "ECUs only"
	default:
		return "buses only"
	}
}

// mergeUnits unions the selected loss units into one concurrent event,
// labels joined with "+". The channel sets are unioned before isolation
// is derived: two units each losing one of an ECU's two channels
// isolate it together.
func mergeUnits(units []lossUnit, idx []int) lossUnit {
	u := lossUnit{dead: make([]bool, len(units[0].dead)), buses: map[string]bool{}}
	labels := make([]string, 0, len(idx))
	for _, ui := range idx {
		v := &units[ui]
		labels = append(labels, v.label)
		for ei, d := range v.dead {
			if d {
				u.dead[ei] = true
			}
		}
		for b := range v.buses {
			u.buses[b] = true
		}
	}
	u.label = strings.Join(labels, "+")
	return u
}

// effectiveGroups is the replica-group set the sweep scores: the
// materialized groups, plus (under IncludeSingletons) every unreplicated
// primary as a group of one, in component declaration order.
func effectiveGroups(comps []boundComp, includeSingletons bool) []redGroup {
	groups := redGroups(comps)
	if !includeSingletons {
		return groups
	}
	standbys := make(map[int][]int, len(groups))
	for _, g := range groups {
		standbys[g.primary] = g.standbys
	}
	var out []redGroup
	for ci := range comps {
		if comps[ci].replicaOf != "" {
			continue
		}
		out = append(out, redGroup{primary: ci, standbys: standbys[ci]})
	}
	return out
}
