package deploy

// Fail-operational feasibility: a redundant deployment is only worth its
// standbys if every fault event of the configured model (default: any
// single hosted-ECU failure; see FaultModel for k-of-n, bus and
// correlated losses) leaves each replica group with a promotable
// instance AND the promoted instance's ECU still fits within its
// capacity after absorbing the failed-over load. redCheck is that
// analysis; Prepared.assemble runs it on the incumbent and on every
// scored move, reading the candidate straight from the Prepared state.
//
// A check costs O(replica groups + events) with no per-move setup:
// newRedCheck resolves everything mapping-independent of the fault model
// (faultmodel.go) once per Bind, and the default universe buckets the groups by primary
// ECU so each single-ECU event visits only the groups it takes down.
// The sweep's scratch is pooled, so a warm move allocates nothing. The
// normal-case RTA verdicts the check reads beside it are computed only
// under RequireSchedulable: Bound.computeECU skips the task set and
// the analysis otherwise.

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/taskset"
)

// promo is one fail-over promotion a single-ECU failure forces: the
// standby (component index) and the ECU index absorbing it.
type promo struct{ standby, target int }

// redGroup is one replica group in bound component indices: the primary
// plus its standbys in declaration order (deploy.Replicate keeps groups
// contiguous, so this is also fail-over preference order).
type redGroup struct {
	primary  int
	standbys []int
}

// redGroups indexes the replica groups of a bound component set. Standbys
// naming an unknown primary are ignored here — model.Validate rejects
// them before any evaluation path that could reach this.
func redGroups(comps []boundComp) []redGroup {
	byName := make(map[string]int, len(comps))
	for i := range comps {
		byName[comps[i].name] = i
	}
	pos := map[int]int{}
	var groups []redGroup
	for i := range comps {
		if comps[i].replicaOf == "" {
			continue
		}
		pi, ok := byName[comps[i].replicaOf]
		if !ok {
			continue
		}
		gi, ok := pos[pi]
		if !ok {
			gi = len(groups)
			pos[pi] = gi
			groups = append(groups, redGroup{primary: pi})
		}
		groups[gi].standbys = append(groups[gi].standbys, i)
	}
	return groups
}

// inst returns instance i of the group: the primary, then the standbys.
func (g *redGroup) inst(i int) int {
	if i == 0 {
		return g.primary
	}
	return g.standbys[i-1]
}

// redCheck runs the fail-operational checks of candidate mappings of
// one topology. Built once per Bind, it holds the fault model resolved
// against the topology and is read-only afterwards.
type redCheck struct {
	comps []boundComp
	ecus  []boundECU
	cons  Constraints // filled
	rta   *sched.Cache
	// groups is the effective replica-group set: the materialized groups
	// plus, under IncludeSingletons, every unreplicated primary as a
	// group of one, in component declaration order.
	groups []redGroup
	// bad holds the malformed-loss violations, in Losses order.
	bad []string
	// events is the explicit universe: every well-formed unit, then every
	// combination of 2..MaxConcurrent units in lexicographic unit order.
	// Empty under the default universe.
	events []faultEvent
}

// newRedCheck resolves cons.Faults against a bound topology. Without
// replica groups there is nothing to sweep, so the universe stays
// unresolved (and its malformed units unreported), exactly as the sweep
// skips it.
func newRedCheck(comps []boundComp, ecus []boundECU, cons Constraints, rta *sched.Cache) *redCheck {
	rc := &redCheck{comps: comps, ecus: ecus, cons: cons, rta: rta,
		groups: effectiveGroups(comps, cons.Faults.IncludeSingletons)}
	if len(rc.groups) > 0 && rc.explicit() {
		rc.resolveEvents()
	}
	return rc
}

// sweep is the per-candidate scratch of one fault sweep, pooled so that
// a warm search scores a move without allocating.
type sweep struct {
	// primary holds each group's primary ECU index.
	primary []int
	// order lists group indices bucketed by primary ECU: the groups whose
	// primary sits on ECU e are order[start[e]:start[e+1]], in group
	// order. next is the fill cursor.
	order, start, next []int
	// lost is the current default-universe event's loss bitmap; combo its
	// ECU indices (concurrent events).
	lost   []bool
	combo  []int
	hosted []int
	promos []promo
	// targets lists the current event's fail-over target ECUs.
	targets []int

	events, survived int
}

var sweeps = sync.Pool{New: func() any { return new(sweep) }}

// ints returns buf resized to n zeroed elements.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// run appends fail-operational violations to m and sets m.Survivability:
// the fraction of (fault event, replica group) pairs the candidate d of
// p survives with a valid fail-over. The explicit universe was resolved
// with the check; the default one sweeps every single hosted-ECU
// failure, reproducing the v1 analysis exactly. 1.0 when nothing is
// scored.
func (rc *redCheck) run(m *Metrics, p *Prepared, d *delta) {
	m.Survivability = 1
	groups := rc.groups
	if len(groups) == 0 {
		return
	}
	// Anti-affinity: two instances of one group on the same ECU fail
	// together, defeating the replication. Group order, then pair order.
	// Always a hard violation, Soft or not — co-location is a deployment
	// bug, not a coverage gap.
	for gi := range groups {
		g := &groups[gi]
		n := 1 + len(g.standbys)
		for x := 0; x < n; x++ {
			ex := p.ecuOf(d, g.inst(x))
			for y := x + 1; y < n; y++ {
				if p.ecuOf(d, g.inst(y)) == ex {
					m.Feasible = false
					m.Violations = append(m.Violations, fmt.Sprintf(
						"replicas %s and %s co-located on %s",
						rc.comps[g.inst(x)].name, rc.comps[g.inst(y)].name, rc.ecus[ex].name))
				}
			}
		}
	}
	for _, v := range rc.bad {
		m.Feasible = false
		m.Violations = append(m.Violations, v)
	}
	s := sweeps.Get().(*sweep)
	s.events, s.survived = 0, 0
	s.combo = s.combo[:0]
	if rc.explicit() {
		for _, ev := range rc.events {
			rc.strike(m, s, p, d, ev, nil)
		}
	} else {
		rc.sweepDefault(m, s, p, d)
	}
	if s.events > 0 {
		m.Survivability = float64(s.survived) / float64(s.events)
	}
	sweeps.Put(s)
}

// sweepDefault sweeps the default universe: every hosted ECU failing
// alone (declaration order), then every combination of 2..MaxConcurrent
// hosted ECUs in lexicographic order. A single-ECU event takes down
// exactly the groups whose primary it hosts, so the groups are bucketed
// by primary ECU in one counting pass and each event visits only its
// bucket; the groups it leaves alone are counted, not scanned.
func (rc *redCheck) sweepDefault(m *Metrics, s *sweep, p *Prepared, d *delta) {
	groups := rc.groups
	necus := len(rc.ecus)
	s.primary = ints(s.primary, len(groups))
	s.start = ints(s.start, necus+1)
	for gi := range groups {
		pe := p.ecuOf(d, groups[gi].primary)
		s.primary[gi] = pe
		s.start[pe+1]++
	}
	for e := 0; e < necus; e++ {
		s.start[e+1] += s.start[e]
	}
	s.next = append(ints(s.next, 0), s.start[:necus]...)
	s.order = ints(s.order, s.start[necus])
	for gi, pe := range s.primary {
		s.order[s.next[pe]] = gi
		s.next[pe]++
	}
	if cap(s.lost) < necus {
		s.lost = make([]bool, necus)
	}
	lost := s.lost[:necus]
	clear(lost)
	s.hosted = s.hosted[:0]
	for ei := 0; ei < necus; ei++ {
		if a, _ := p.get(d, ei); !a.hosts {
			continue
		}
		s.hosted = append(s.hosted, ei)
		bucket := s.order[s.start[ei]:s.start[ei+1]]
		s.events += len(groups) - len(bucket)
		s.survived += len(groups) - len(bucket)
		if len(bucket) == 0 {
			continue
		}
		lost[ei] = true
		rc.strike(m, s, p, d, faultEvent{label: rc.ecus[ei].name, lost: lost}, bucket)
		lost[ei] = false
	}
	k := min(rc.cons.Faults.MaxConcurrent, len(s.hosted))
	for size := 2; size <= k; size++ {
		idx := ints(s.combo, size)
		for i := range idx {
			idx[i] = i
		}
		s.combo = idx
		for ok := true; ok; ok = nextCombo(idx, len(s.hosted)) {
			for _, i := range idx {
				lost[s.hosted[i]] = true
			}
			// The label is built only if a violation needs it.
			rc.strike(m, s, p, d, faultEvent{lost: lost}, nil)
			for _, i := range idx {
				lost[s.hosted[i]] = false
			}
		}
	}
}

// label names a fault event in violations: its resolved label, or the
// current concurrent combination's ECU names joined with "+".
func (rc *redCheck) label(ev faultEvent, s *sweep) string {
	if ev.label != "" {
		return ev.label
	}
	names := make([]string, len(s.combo))
	for j, i := range s.combo {
		names[j] = rc.ecus[s.hosted[i]].name
	}
	return strings.Join(names, "+")
}

// strike scores one fault event against the groups it may hit (indices
// into rc.groups, in group order; nil for every group) and counts those
// (event, group) pairs and their survivors. A group whose primary the event
// takes down fails over to its first standby (preference order) outside
// the loss set — the instance rte.FailOver would promote — and every
// target ECU must absorb the promotions the event sends its way.
func (rc *redCheck) strike(m *Metrics, s *sweep, p *Prepared, d *delta, ev faultEvent, hit []int) {
	soft := rc.cons.Faults.Soft
	n := len(hit)
	if hit == nil {
		n = len(rc.groups)
	}
	s.events += n
	s.promos = s.promos[:0]
	for i := 0; i < n; i++ {
		gi := i
		if hit != nil {
			gi = hit[i]
		}
		g := &rc.groups[gi]
		if !ev.lost[p.ecuOf(d, g.primary)] {
			s.survived++ // this event does not take the primary down
			continue
		}
		sb, target := -1, -1
		for _, sbi := range g.standbys {
			if se := p.ecuOf(d, sbi); !ev.lost[se] {
				sb, target = sbi, se
				break
			}
		}
		if sb < 0 {
			if !soft {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s failure leaves %s with no standby on another ECU",
					rc.label(ev, s), rc.comps[g.primary].name))
			}
			continue
		}
		s.promos = append(s.promos, promo{standby: sb, target: target})
	}
	if len(s.promos) == 0 {
		return
	}
	// Absorption: each target ECU (declaration order) must stay within
	// the utilization cap — and schedulable, when RTA is required —
	// after every promotion this event sends its way. Passive standbys
	// add their load only now; active ones already paid it.
	s.targets = s.targets[:0]
	for _, pr := range s.promos {
		if !slices.Contains(s.targets, pr.target) {
			s.targets = append(s.targets, pr.target)
		}
	}
	slices.Sort(s.targets)
	for _, ti := range s.targets {
		n := 0
		a, _ := p.get(d, ti)
		al := a.load
		speed := rc.ecus[ti].speed
		for _, pr := range s.promos {
			if pr.target != ti {
				continue
			}
			n++
			if !rc.comps[pr.standby].passive {
				continue
			}
			for _, t := range rc.comps[pr.standby].loadTerms {
				al += t / speed
			}
		}
		ok := al <= rc.cons.MaxUtilization
		if !ok {
			if !soft {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s failure overloads fail-over target %s: %.3f > %.3f",
					rc.label(ev, s), rc.ecus[ti].name, al, rc.cons.MaxUtilization))
			}
		} else if rc.cons.RequireSchedulable && !rc.failoverSchedulable(p, d, ti, s.promos) {
			ok = false
			if !soft {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s unschedulable after absorbing fail-over from %s",
					rc.ecus[ti].name, rc.label(ev, s)))
			}
		}
		if ok {
			s.survived += n
		}
	}
}

// failoverSchedulable runs response-time analysis on the target ECU's
// post-promotion task set: its normal-case tasks plus the promoted
// passive standbys'.
func (rc *redCheck) failoverSchedulable(p *Prepared, d *delta, target int, promos []promo) bool {
	promoted := make(map[int]bool, len(promos))
	for _, pr := range promos {
		if pr.target == target && rc.comps[pr.standby].passive {
			promoted[pr.standby] = true
		}
	}
	var protos []*taskset.Proto
	for ci := range rc.comps {
		comp := &rc.comps[ci]
		hosted := p.ecuOf(d, ci) == target && !comp.passive
		if !hosted && !promoted[ci] {
			continue
		}
		for j := range comp.protos {
			protos = append(protos, &comp.protos[j])
		}
	}
	tasks, _ := taskset.Rank(protos, rc.ecus[target].speed, nil, nil)
	if len(tasks) == 0 {
		return true
	}
	ok, err := rc.rta.Check(tasks)
	return err == nil && ok
}

// asilSpreadViolation formats the MaxASILSpread violation for one ECU's
// criticality span, "" when admissible. Shared by the scorer and the
// first-fit packer so the bound cannot drift between them.
func asilSpreadViolation(ecu string, worst, best model.ASIL, maxSpread int) string {
	if maxSpread == 0 {
		return ""
	}
	limit := maxSpread
	if limit < 0 {
		limit = 0 // negative = strict: one criticality level per ECU
	}
	if spread := int(worst) - int(best); spread > limit {
		return fmt.Sprintf("%s co-locates %v with %v: ASIL spread %d exceeds %d",
			ecu, worst, best, spread, limit)
	}
	return ""
}
