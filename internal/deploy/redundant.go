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
// The sweep is incremental. newRedCheck resolves everything
// mapping-independent once per Bind (faultmodel.go): the event universe
// in sweep order, each event as the list of ECUs it loses, and the
// reverse index ECU -> events that lose it. A Prepared keeps, in flat
// slices allocated once per Prepare, each event's result for the
// incumbent — whether it is in the universe, how many of its (event,
// group) pairs fail — the reverse index ECU -> events promoting onto
// it, each group's co-located instance pairs, and the groups bucketed by
// primary ECU — only those with a standby; the others fail whenever
// their primary's ECU is lost and are just counted per ECU. Prepare
// strikes every event; a move of component c from ECU a to ECU b
// strikes again only the events it dirties:
//
//   - events whose lost set includes a or b: under the default universe
//     an event enters or leaves the universe as a stops or b starts
//     hosting something (k >= 2 combinations included), and a moved
//     primary's group enters or leaves the hit set only of these;
//   - events whose promotion targets include a or b: a target's load
//     and hosted set change, and a moved standby that was promoted may
//     no longer be.
//
// The events that hit c's replica group need no index of their own: a
// moved standby can change an event's fail-over only if it was promoted
// or lost before the move or is lost after it, which puts the event in
// the lists above. No other event reads anything the move changes, so
// clean events keep their stored results, and a move costs the few
// events it touches.
//
// Apply strikes the same dirty set against the new incumbent and stores
// the results. Violation text names every failing (event, group) pair in
// sweep order, so a full score of a hard (non-Soft) model strikes every
// event, as Prepare does, and lists every group each one hits. The
// normal-case RTA verdicts the check reads beside it are computed only
// under RequireSchedulable: Bound.computeECU skips the task set and the
// analysis otherwise.

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"autorte/internal/model"
	"autorte/internal/taskset"
)

// promo is one fail-over promotion a fault event forces: the standby
// (component index) and the ECU index absorbing it.
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
	// groups is the effective replica-group set: the materialized groups
	// plus, under IncludeSingletons, every unreplicated primary as a
	// group of one, in component declaration order. groupOf is each
	// component's index into it, -1 outside every group.
	groups  []redGroup
	groupOf []int
	// bad holds the malformed-loss violations, in Losses order.
	bad []string
	// The event universe in sweep order: event x loses the ECUs
	// evECUs[evStart[x]:evStart[x+1]], ascending, bus isolation folded
	// in. The explicit universe is every well-formed unit, then every
	// combination of 2..MaxConcurrent units in lexicographic unit order,
	// named by labels. The default universe (labels nil) is every ECU,
	// then every combination of 2..MaxConcurrent ECUs in lexicographic
	// order; an event of it is in a candidate's universe while every ECU
	// it loses hosts something, which is the hosted-ECU sweep exactly.
	evECUs, evStart []int
	labels          []string
	// lostBy is the reverse index ECU -> events: the events losing ECU e
	// are the set bits of lostBy[e*words:(e+1)*words].
	lostBy []uint64
	words  int
}

// newRedCheck resolves cons.Faults against a bound topology. Without
// replica groups there is nothing to sweep, so the universe stays
// unresolved (and its malformed units unreported), exactly as the sweep
// skips it.
func newRedCheck(comps []boundComp, ecus []boundECU, cons Constraints) *redCheck {
	rc := &redCheck{comps: comps, ecus: ecus, cons: cons,
		groups: effectiveGroups(comps, cons.Faults.IncludeSingletons), evStart: []int{0}}
	if len(rc.groups) == 0 {
		return rc
	}
	rc.groupOf = make([]int, len(comps))
	for i := range rc.groupOf {
		rc.groupOf[i] = -1
	}
	for gi, g := range rc.groups {
		rc.groupOf[g.primary] = gi
		for _, sb := range g.standbys {
			rc.groupOf[sb] = gi
		}
	}
	if rc.explicit() {
		rc.resolveEvents()
	} else {
		rc.defaultEvents()
	}
	n := rc.numEvents()
	rc.words = (n + 63) / 64
	rc.lostBy = make([]uint64, len(ecus)*rc.words)
	for x := 0; x < n; x++ {
		for _, e := range rc.lost(x) {
			rc.lostBy[e*rc.words+x/64] |= 1 << (x % 64)
		}
	}
	return rc
}

// addEvent appends an event losing the given ECUs (ascending) to the
// universe.
func (rc *redCheck) addEvent(lost ...int) {
	rc.evECUs = append(rc.evECUs, lost...)
	rc.evStart = append(rc.evStart, len(rc.evECUs))
}

// numEvents is the size of the resolved universe.
func (rc *redCheck) numEvents() int { return len(rc.evStart) - 1 }

// lost returns the ECUs event x loses, ascending.
func (rc *redCheck) lost(x int) []int { return rc.evECUs[rc.evStart[x]:rc.evStart[x+1]] }

// label names event x in violations: its resolved label, or its ECUs'
// names joined with "+".
func (rc *redCheck) label(x int) string {
	if rc.labels != nil {
		return rc.labels[x]
	}
	lost := rc.lost(x)
	names := make([]string, len(lost))
	for j, e := range lost {
		names[j] = rc.ecus[e].name
	}
	return strings.Join(names, "+")
}

// faultState is a Prepared's fail-operational state for its incumbent:
// each event's result and the indexes that find the events a move
// dirties, plus the scratch of one strike. Its slices are allocated once
// per Prepare, so a warm move allocates nothing.
type faultState struct {
	// active reports whether each event is in the incumbent's universe,
	// fails how many of its (event, group) pairs fail (0 when inactive).
	active []bool
	fails  []int
	// total sums the active events' results.
	total tally
	// targetOf is the reverse index ECU -> events promoting onto it, laid
	// out like redCheck.lostBy.
	targetOf []uint64
	// pairs counts each group's co-located instance pairs; nPairs sums
	// them.
	pairs  []int
	nPairs int
	// order lists the groups with a standby bucketed by primary ECU: the
	// ones whose primary sits on ECU e are order[start[e]:start[e+1]],
	// in group order. bare counts per ECU the groups without a standby
	// whose primary it hosts: they fail whenever it is lost.
	order, start, bare []int
	// Scratch: the dirty events of one move, the loss bitmap, hit groups,
	// promotions and promotion targets of one strike, the last three
	// allocated at their largest size so a strike never grows them.
	dirty   []uint64
	lost    []bool
	hit     []int
	promos  []promo
	targets []int
}

// tally sums the results of a set of in-universe events: how many there
// are, their failed (event, group) pairs, and how many fail at least one
// pair — the hard failures when the model is not Soft.
type tally struct{ events, fails, failing int }

// add counts (sign 1) or uncounts (sign -1) an event failing fails pairs.
func (t *tally) add(fails, sign int) {
	t.events += sign
	t.fails += sign * fails
	if fails > 0 {
		t.failing += sign
	}
}

// prepare fills p's fault state by striking every event against the
// incumbent.
func (rc *redCheck) prepare(p *Prepared) {
	if len(rc.groups) == 0 {
		return
	}
	n := rc.numEvents()
	st := &p.faults
	*st = faultState{
		active:   make([]bool, n),
		fails:    make([]int, n),
		targetOf: make([]uint64, len(rc.ecus)*rc.words),
		pairs:    make([]int, len(rc.groups)),
		order:    make([]int, len(rc.groups)),
		start:    make([]int, len(rc.ecus)+1),
		bare:     make([]int, len(rc.ecus)),
		dirty:    make([]uint64, rc.words),
		lost:     make([]bool, len(rc.ecus)),
		hit:      make([]int, 0, len(rc.groups)),
		promos:   make([]promo, 0, len(rc.groups)),
		targets:  make([]int, 0, len(rc.ecus)),
	}
	for gi := range rc.groups {
		st.pairs[gi] = rc.colocated(nil, p, &noDelta, gi)
		st.nPairs += st.pairs[gi]
	}
	rc.bucket(p)
	for x := 0; x < n; x++ {
		st.dirty[x/64] |= 1 << (x % 64)
	}
	rc.commit(p)
}

// apply updates p's fault state after the incumbent moved comp index
// ci: p.faults.dirty holds the events the move dirties, marked before
// the incumbent changed.
func (rc *redCheck) apply(p *Prepared, ci int) {
	if gi := rc.groupOf[ci]; gi >= 0 {
		st := &p.faults
		st.nPairs -= st.pairs[gi]
		st.pairs[gi] = rc.colocated(nil, p, &noDelta, gi)
		st.nPairs += st.pairs[gi]
		if rc.groups[gi].primary == ci {
			rc.bucket(p)
		}
	}
	rc.commit(p)
}

// bucket buckets the groups by the incumbent's primary ECU in one
// counting pass, and counts the bare ones.
func (rc *redCheck) bucket(p *Prepared) {
	st := &p.faults
	clear(st.start)
	clear(st.bare)
	for _, g := range rc.groups {
		if e := p.curIdx[g.primary]; len(g.standbys) == 0 {
			st.bare[e]++
		} else {
			st.start[e]++
		}
	}
	for e := 1; e < len(st.start); e++ {
		st.start[e] += st.start[e-1]
	}
	// start[e] is now where bucket e ends; filling from the back moves it
	// to where the bucket begins and leaves each bucket in group order.
	for gi := len(rc.groups) - 1; gi >= 0; gi-- {
		if g := &rc.groups[gi]; len(g.standbys) > 0 {
			e := p.curIdx[g.primary]
			st.start[e]--
			st.order[st.start[e]] = gi
		}
	}
}

// markDirty sets p's dirty events to those the candidate d's move of
// comp index d.moved from ECU a to ECU b can change: the events losing a
// or b or promoting onto either. That covers the events hitting the
// moved component's replica group too. A moved primary changes which
// events hit its group only among those losing a or b. A moved standby
// changes an event's fail-over only if it was promoted (a is a target),
// was lost (a is lost), or is lost at b; it cannot be promoted after the
// move unless it was promoted or lost before, since the standbys ahead
// of it stay put.
func (rc *redCheck) markDirty(p *Prepared, d *delta) {
	st, w := &p.faults, rc.words
	a, b := p.curIdx[d.moved]*w, d.target*w
	for i := range st.dirty {
		st.dirty[i] = rc.lostBy[a+i] | rc.lostBy[b+i] | st.targetOf[a+i] | st.targetOf[b+i]
	}
}

// nextBit returns the index of the first set bit of set at or after i,
// -1 when there is none.
func nextBit(set []uint64, i int) int {
	w := i / 64
	if w >= len(set) {
		return -1
	}
	if v := set[w] >> (i % 64); v != 0 {
		return i + bits.TrailingZeros64(v)
	}
	for w++; w < len(set); w++ {
		if set[w] != 0 {
			return w*64 + bits.TrailingZeros64(set[w])
		}
	}
	return -1
}

// commit strikes p's dirty events against the incumbent and stores
// their results, keeping the totals and the target index current.
func (rc *redCheck) commit(p *Prepared) {
	st, w := &p.faults, rc.words
	for x := nextBit(st.dirty, 0); x >= 0; x = nextBit(st.dirty, x+1) {
		if st.active[x] {
			st.total.add(st.fails[x], -1)
		}
		bit := uint64(1) << (x % 64)
		for e := range rc.ecus {
			st.targetOf[e*w+x/64] &^= bit
		}
		f, targets, ok := rc.strike(nil, p, &noDelta, x)
		st.fails[x], st.active[x] = f, ok
		if !ok {
			continue
		}
		st.total.add(f, 1)
		for _, t := range targets {
			st.targetOf[t*w+x/64] |= bit
		}
	}
}

// run appends fail-operational violations to m and sets m.Survivability:
// the fraction of (fault event, replica group) pairs the candidate d of
// p survives with a valid fail-over. 1.0 when nothing is scored. With
// full unset it formats no violation and returns at the first
// infeasibility, like assemble.
func (rc *redCheck) run(m *Metrics, p *Prepared, d *delta, full bool) {
	m.Survivability = 1
	if len(rc.groups) == 0 {
		return
	}
	st := &p.faults
	// Anti-affinity: two instances of one group on the same ECU fail
	// together, defeating the replication. Always a hard violation, Soft
	// or not — co-location is a deployment bug, not a coverage gap. Only
	// the moved component's group can change its count.
	pairs := st.nPairs
	if d.moved >= 0 {
		if gi := rc.groupOf[d.moved]; gi >= 0 && len(rc.groups[gi].standbys) > 0 {
			pairs += rc.colocated(nil, p, d, gi) - st.pairs[gi]
		}
	}
	if pairs > 0 {
		m.Feasible = false
		if !full {
			return
		}
		for gi := range rc.groups { // group order, then pair order
			rc.colocated(m, p, d, gi)
		}
	}
	if len(rc.bad) > 0 {
		m.Feasible = false
		if !full {
			return
		}
		m.Violations = append(m.Violations, rc.bad...)
	}
	soft := rc.cons.Faults.Soft
	var t tally
	if full && !soft {
		// Every failure is a violation, reported in sweep order: strike
		// every event.
		for x := 0; x < rc.numEvents(); x++ {
			if f, _, ok := rc.strike(m, p, d, x); ok {
				t.add(f, 1)
			}
		}
	} else {
		// The incumbent's totals, with the dirty events struck again.
		t = st.total
		if d.moved >= 0 {
			rc.markDirty(p, d)
			for x := nextBit(st.dirty, 0); x >= 0; x = nextBit(st.dirty, x+1) {
				if st.active[x] {
					t.add(st.fails[x], -1)
				}
				if f, _, ok := rc.strike(nil, p, d, x); ok {
					t.add(f, 1)
				}
			}
		}
		if t.failing > 0 && !soft {
			m.Feasible = false
			return // full is unset: a full hard score struck every event
		}
	}
	if t.events > 0 {
		n := t.events * len(rc.groups) // (event, group) pairs
		m.Survivability = float64(n-t.fails) / float64(n)
	}
}

// colocated counts group gi's instance pairs sharing an ECU under the
// candidate d, in pair order. With m set, each pair appends its
// violation to m.
func (rc *redCheck) colocated(m *Metrics, p *Prepared, d *delta, gi int) int {
	g := &rc.groups[gi]
	n, pairs := 1+len(g.standbys), 0
	for x := 0; x < n; x++ {
		ex := p.ecuOf(d, g.inst(x))
		for y := x + 1; y < n; y++ {
			if p.ecuOf(d, g.inst(y)) != ex {
				continue
			}
			pairs++
			if m != nil {
				m.Violations = append(m.Violations, fmt.Sprintf(
					"replicas %s and %s co-located on %s",
					rc.comps[g.inst(x)].name, rc.comps[g.inst(y)].name, rc.ecus[ex].name))
			}
		}
	}
	return pairs
}

// strike scores event x against the candidate d: whether it is in the
// candidate's universe — an explicit event always is, a default one
// while every ECU it loses hosts something — and if so how many of its
// (event, group) pairs fail, and its promotion targets, ascending, in
// scratch valid until the next strike. Only the groups whose primary the
// event takes down can fail; every other group survives it. A hit group
// fails over to its first standby (preference order) outside
// the loss set — the instance rte.FailOver would promote — and every
// target ECU must absorb the promotions the event sends its way. With m
// set and the model not Soft, each failure appends its violation to m.
func (rc *redCheck) strike(m *Metrics, p *Prepared, d *delta, x int) (int, []int, bool) {
	st := &p.faults
	lostECUs, lost := rc.lost(x), st.lost
	if !rc.explicit() {
		for _, e := range lostECUs {
			if a, _ := p.get(d, e); !a.hosts {
				return 0, nil, false
			}
		}
	}
	text := m != nil && !rc.cons.Faults.Soft
	for _, e := range lostECUs {
		lost[e] = true
	}
	// The hit groups are those whose primary the event takes down under
	// the candidate. Violations name every one of them in group order.
	// Otherwise a group without a standby is only counted, for it fails
	// whatever else the mapping does, and the others are the buckets of
	// the lost ECUs, a moved primary's group leaving its incumbent bucket
	// for the target's.
	fails := 0
	hit := st.hit[:0]
	if text {
		for gi := range rc.groups {
			if lost[p.ecuOf(d, rc.groups[gi].primary)] {
				hit = append(hit, gi)
			}
		}
	} else {
		moved := -1
		if d.moved >= 0 {
			if gi := rc.groupOf[d.moved]; gi >= 0 && rc.groups[gi].primary == d.moved {
				moved = gi
			}
		}
		for _, e := range lostECUs {
			fails += st.bare[e]
			for _, gi := range st.order[st.start[e]:st.start[e+1]] {
				if gi != moved {
					hit = append(hit, gi)
				}
			}
		}
		joins := false
		if moved >= 0 && len(rc.groups[moved].standbys) == 0 {
			if lost[p.curIdx[d.moved]] {
				fails--
			}
			if lost[d.target] {
				fails++
			}
		} else if moved >= 0 && lost[d.target] {
			hit = append(hit, moved)
			joins = true
		}
		if len(lostECUs) > 1 || joins {
			slices.Sort(hit)
		}
	}
	promos := st.promos[:0]
	for _, gi := range hit {
		g := &rc.groups[gi]
		sb, target := -1, -1
		for _, sbi := range g.standbys {
			if se := p.ecuOf(d, sbi); !lost[se] {
				sb, target = sbi, se
				break
			}
		}
		if sb < 0 {
			fails++
			if text {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s failure leaves %s with no standby on another ECU",
					rc.label(x), rc.comps[g.primary].name))
			}
			continue
		}
		promos = append(promos, promo{standby: sb, target: target})
	}
	for _, e := range lostECUs {
		lost[e] = false
	}
	// Absorption: each target ECU (declaration order) must stay within
	// the utilization cap — and schedulable, when RTA is required —
	// after every promotion this event sends its way. Passive standbys
	// add their load only now; active ones already paid it.
	targets := st.targets[:0]
	for _, pr := range promos {
		if !slices.Contains(targets, pr.target) {
			targets = append(targets, pr.target)
		}
	}
	if len(targets) > 1 {
		slices.Sort(targets)
	}
	for _, ti := range targets {
		n := 0
		a, _ := p.get(d, ti)
		al := a.load
		speed := rc.ecus[ti].speed
		for _, pr := range promos {
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
		if al > rc.cons.MaxUtilization {
			fails += n
			if text {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s failure overloads fail-over target %s: %.3f > %.3f",
					rc.label(x), rc.ecus[ti].name, al, rc.cons.MaxUtilization))
			}
		} else if rc.cons.RequireSchedulable && !rc.failoverSchedulable(p, d, ti, promos) {
			fails += n
			if text {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf(
					"%s unschedulable after absorbing fail-over from %s",
					rc.ecus[ti].name, rc.label(x)))
			}
		}
	}
	return fails, targets, true
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
	ok, err := p.b.ev.schedulable(tasks)
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
