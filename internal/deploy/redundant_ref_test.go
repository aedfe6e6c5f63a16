package deploy

// The reference fail-operational sweep: the original O(events × groups)
// analysis, which rebuilds the fault universe on every call and visits
// every (event, replica group) pair, reading the mapping through a
// refView. The production redCheck resolves the mapping-independent part
// once per Bind, buckets the default universe by primary ECU and reads
// the candidate off a Prepared; FuzzFaultSweep holds the two to
// DeepEqual Metrics.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/workload"
)

// refRedCheck runs the reference sweep over a candidate mapping. cons
// is filled; groups are the materialized replica groups, and
// effectiveGroups adds the singletons per call.
type refRedCheck struct {
	comps []boundComp
	ecus  []boundECU
	cons  Constraints
	refView
	groups []redGroup
}

func newRefRedCheck(comps []boundComp, ecus []boundECU, cons Constraints, v refView) *refRedCheck {
	return &refRedCheck{comps: comps, ecus: ecus, cons: cons, refView: v, groups: redGroups(comps)}
}

// run appends fail-operational violations to m and sets m.Survivability:
// the fraction of (fault event, replica group) pairs the deployment
// survives with a valid fail-over. The event universe comes from
// cons.Faults; its zero value sweeps every single hosted-ECU failure,
// reproducing the v1 analysis exactly. 1.0 when nothing is scored.
func (rc *refRedCheck) run(m *Metrics) {
	m.Survivability = 1
	groups := rc.effectiveGroups()
	if len(groups) == 0 {
		return
	}
	soft := rc.cons.Faults.Soft
	// Anti-affinity: two instances of one group on the same ECU fail
	// together, defeating the replication. Group order, then pair order.
	// Always a hard violation, Soft or not — co-location is a deployment
	// bug, not a coverage gap.
	for _, g := range groups {
		insts := append([]int{g.primary}, g.standbys...)
		for x := 0; x < len(insts); x++ {
			ex, okx := rc.ecuOf(insts[x])
			if !okx {
				continue
			}
			for y := x + 1; y < len(insts); y++ {
				if ey, oky := rc.ecuOf(insts[y]); oky && ey == ex {
					m.Feasible = false
					m.Violations = append(m.Violations, fmt.Sprintf(
						"replicas %s and %s co-located on %s",
						rc.comps[insts[x]].name, rc.comps[insts[y]].name, rc.ecus[ex].name))
				}
			}
		}
	}
	// Fault-event sweep: for every event of the fault model (zero model:
	// every used ECU, declaration order) and every replica group (group
	// order), does the function survive?
	events, survived := 0, 0
	for _, ev := range rc.refLossEvents(m) {
		var promos []promo
		for _, g := range groups {
			events++
			pe, ok := rc.ecuOf(g.primary)
			if !ok || !ev.lost(rc.ecus, pe) {
				survived++ // this event does not take the primary down
				continue
			}
			// The designated fail-over target: the first standby (preference
			// order) hosted outside the event's loss set — the instance
			// rte.FailOver would promote.
			sb, target := -1, -1
			for _, s := range g.standbys {
				if se, ok := rc.ecuOf(s); ok && !ev.lost(rc.ecus, se) {
					sb, target = s, se
					break
				}
			}
			if sb < 0 {
				if !soft {
					m.Feasible = false
					m.Violations = append(m.Violations, fmt.Sprintf(
						"%s failure leaves %s with no standby on another ECU",
						ev.label, rc.comps[g.primary].name))
				}
				continue
			}
			promos = append(promos, promo{standby: sb, target: target})
		}
		if len(promos) == 0 {
			continue
		}
		// Absorption: each target ECU (declaration order) must stay within
		// the utilization cap — and schedulable, when RTA is required —
		// after every promotion this event sends its way. Passive
		// standbys add their load only now; active ones already paid it.
		for ti := range rc.ecus {
			n := 0
			for _, pr := range promos {
				if pr.target == ti {
					n++
				}
			}
			if n == 0 {
				continue
			}
			al := rc.load(ti)
			speed := rc.ecus[ti].speed
			for _, pr := range promos {
				if pr.target != ti || !rc.comps[pr.standby].passive {
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
						ev.label, rc.ecus[ti].name, al, rc.cons.MaxUtilization))
				}
			} else if rc.cons.RequireSchedulable && !rc.failoverSchedulable(ti, promos) {
				ok = false
				if !soft {
					m.Feasible = false
					m.Violations = append(m.Violations, fmt.Sprintf(
						"%s unschedulable after absorbing fail-over from %s",
						rc.ecus[ti].name, ev.label))
				}
			}
			if ok {
				survived += n
			}
		}
	}
	if events > 0 {
		m.Survivability = float64(survived) / float64(events)
	}
}

// failoverSchedulable runs response-time analysis on the target ECU's
// post-promotion task set: its normal-case tasks plus the promoted
// passive standbys'.
func (rc *refRedCheck) failoverSchedulable(target int, promos []promo) bool {
	var protos []*taskset.Proto
	for ci := range rc.comps {
		comp := &rc.comps[ci]
		promoted := false
		for _, pr := range promos {
			promoted = promoted || pr.target == target && pr.standby == ci && comp.passive
		}
		if ce, ok := rc.ecuOf(ci); !promoted && (!ok || ce != target || comp.passive) {
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
	ok, _, err := sched.Schedulable(tasks)
	return err == nil && ok
}

// refLossEvent is one resolved fault event of the sweep: the label used in
// violation strings, the dead ECUs (by bound index) and the lost bus
// channels.
type refLossEvent struct {
	label string
	dead  []bool
	buses map[string]bool
}

// lost reports whether the ECU at index ei is out of service under the
// event: dead outright, or attached to buses that are all lost.
func (e *refLossEvent) lost(ecus []boundECU, ei int) bool {
	if e.dead[ei] {
		return true
	}
	if len(e.buses) == 0 || len(ecus[ei].buses) == 0 {
		return false
	}
	for _, b := range ecus[ei].buses {
		if !e.buses[b] {
			return false
		}
	}
	return true
}

// lossUnits resolves the fault model's atomic loss units against the
// bound topology. Malformed units (wrong fields for the kind, unknown
// names) append hard violations — a misconfigured fault model must not
// silently pass as "survived". With no explicit Losses the units are
// the v1 universe: one per hosted ECU, in ECU declaration order.
func (rc *refRedCheck) lossUnits(m *Metrics) []refLossEvent {
	fm := rc.cons.Faults
	if len(fm.Losses) == 0 {
		var units []refLossEvent
		for ei := range rc.ecus {
			if !rc.hosts(ei) {
				continue
			}
			dead := make([]bool, len(rc.ecus))
			dead[ei] = true
			units = append(units, refLossEvent{label: rc.ecus[ei].name, dead: dead})
		}
		return units
	}
	ecuIdx := make(map[string]int, len(rc.ecus))
	for i := range rc.ecus {
		ecuIdx[rc.ecus[i].name] = i
	}
	busKnown := map[string]bool{}
	for i := range rc.ecus {
		for _, b := range rc.ecus[i].buses {
			busKnown[b] = true
		}
	}
	bad := func(format string, args ...any) {
		m.Feasible = false
		m.Violations = append(m.Violations, fmt.Sprintf(format, args...))
	}
	var units []refLossEvent
	for li, l := range fm.Losses {
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
		ev := refLossEvent{dead: make([]bool, len(rc.ecus)), buses: map[string]bool{}}
		ok := true
		for _, name := range l.ECUs {
			ei, known := ecuIdx[name]
			if !known {
				bad("fault model: loss %d names unknown ECU %q", li, name)
				ok = false
				continue
			}
			ev.dead[ei] = true
		}
		for _, name := range l.Buses {
			if !busKnown[name] {
				bad("fault model: loss %d names unknown bus %q", li, name)
				ok = false
				continue
			}
			ev.buses[name] = true
		}
		if !ok {
			continue
		}
		ev.label = strings.Join(append(append([]string{}, l.ECUs...), l.Buses...), "+")
		units = append(units, ev)
	}
	return units
}

// refLossEvents expands the loss units into the swept event set: every
// single unit, then every combination of 2..MaxConcurrent units in
// lexicographic unit order, labels joined with "+". Deterministic.
func (rc *refRedCheck) refLossEvents(m *Metrics) []refLossEvent {
	units := rc.lossUnits(m)
	events := append([]refLossEvent{}, units...)
	k := rc.cons.Faults.MaxConcurrent
	if k > len(units) {
		k = len(units)
	}
	for size := 2; size <= k; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			events = append(events, refMergeUnits(units, idx, len(rc.ecus)))
			// Advance to the next lexicographic combination.
			i := size - 1
			for i >= 0 && idx[i] == len(units)-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return events
}

// refMergeUnits unions the selected loss units into one concurrent event.
func refMergeUnits(units []refLossEvent, idx []int, necus int) refLossEvent {
	ev := refLossEvent{dead: make([]bool, necus), buses: map[string]bool{}}
	labels := make([]string, 0, len(idx))
	for _, ui := range idx {
		u := &units[ui]
		labels = append(labels, u.label)
		for ei, d := range u.dead {
			if d {
				ev.dead[ei] = true
			}
		}
		for b := range u.buses {
			ev.buses[b] = true
		}
	}
	ev.label = strings.Join(labels, "+")
	return ev
}

// effectiveGroups is the replica-group set the sweep scores: the
// materialized groups, plus (under IncludeSingletons) every unreplicated
// primary as a group of one, in component declaration order.
func (rc *refRedCheck) effectiveGroups() []redGroup {
	if !rc.cons.Faults.IncludeSingletons {
		return rc.groups
	}
	standbys := make(map[int][]int, len(rc.groups))
	for _, g := range rc.groups {
		standbys[g.primary] = g.standbys
	}
	var groups []redGroup
	for ci := range rc.comps {
		if rc.comps[ci].replicaOf != "" {
			continue
		}
		groups = append(groups, redGroup{primary: ci, standbys: standbys[ci]})
	}
	return groups
}

// fuzzBases are the topologies FuzzFaultSweep draws from: the
// redundancy fixture's spec (three ECUs on one channel) and the default
// generated vehicle (twelve ECUs, 39 components).
var fuzzBases = sync.OnceValues(func() ([]*model.System, error) {
	veh, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		return nil, err
	}
	return []*model.System{redSpec(), veh}, nil
})

// fuzzInput decodes fuzz bytes; an exhausted input reads as zeros.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 || n <= 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// fuzzCase is one decoded FuzzFaultSweep input: a replicated system with
// a complete mapping, the constraints to score it under, the components
// FuzzFirstFit leaves to Place and the moves to score.
type fuzzCase struct {
	sys      *model.System
	cons     Constraints
	unmapped []string
	moves    [][2]string
}

// decodeFuzzCase builds a case from the input. Layout, one byte each:
// base; second-channel ECU mask; replicated component count, then per
// component its index, instance count and mode; fault-model flags (Soft,
// IncludeSingletons, RequireSchedulable, k = flags>>3 % 4); utilization
// cap choice; loss count, then per loss its kind (3 is unknown), ECU
// names and channel names (an index past the end names an unknown one);
// the ECU of every component; the unmapped components; the moves. It
// leaves the rest of the input unread.
func decodeFuzzCase(in *fuzzInput) (*fuzzCase, error) {
	bases, err := fuzzBases()
	if err != nil {
		return nil, err
	}
	sys := bases[in.next(len(bases))].Clone()
	if mask := in.next(256); mask != 0 {
		sys.Buses = append(sys.Buses, &model.Bus{Name: "lin1", Kind: model.BusCAN, BitRate: 125000})
		for i, e := range sys.ECUs {
			if mask&(1<<(i%8)) != 0 {
				e.Buses = append(append([]string(nil), e.Buses...), "lin1")
			}
		}
	}
	for n := in.next(4); n > 0; n-- {
		c := sys.Components[in.next(len(sys.Components))]
		c.Redundancy = model.Redundancy{
			Replicas: 1 + in.next(3),
			Mode:     []model.ReplicaMode{model.StandbyPassive, model.StandbyActive}[in.next(2)],
		}
	}
	if sys, err = Replicate(sys); err != nil {
		return nil, err
	}
	fc := &fuzzCase{sys: sys}
	flags := in.next(256)
	fc.cons = Constraints{
		MaxUtilization:     []float64{0, 0.3, 0.05}[in.next(3)],
		RequireSchedulable: flags&4 != 0,
		Faults: FaultModel{
			Soft: flags&1 != 0, IncludeSingletons: flags&2 != 0,
			MaxConcurrent: flags >> 3 % 4,
		},
	}
	ecuName := func() string {
		if i := in.next(len(sys.ECUs) + 1); i < len(sys.ECUs) {
			return sys.ECUs[i].Name
		}
		return "ghost"
	}
	busName := func() string {
		if i := in.next(len(sys.Buses) + 1); i < len(sys.Buses) {
			return sys.Buses[i].Name
		}
		return "ghost-bus"
	}
	for n := in.next(5); n > 0; n-- {
		l := Loss{Kind: LossKind(in.next(4))}
		for k := in.next(3); k > 0; k-- {
			l.ECUs = append(l.ECUs, ecuName())
		}
		for k := in.next(3); k > 0; k-- {
			l.Buses = append(l.Buses, busName())
		}
		fc.cons.Faults.Losses = append(fc.cons.Faults.Losses, l)
	}
	sys.Mapping = make(map[string]string, len(sys.Components))
	for _, c := range sys.Components {
		sys.Mapping[c.Name] = sys.ECUs[in.next(len(sys.ECUs))].Name
	}
	for n := in.next(3); n > 0; n-- {
		fc.unmapped = append(fc.unmapped, sys.Components[in.next(len(sys.Components))].Name)
	}
	for n := 1 + in.next(4); n > 0; n-- {
		fc.moves = append(fc.moves, [2]string{
			sys.Components[in.next(len(sys.Components))].Name,
			sys.ECUs[in.next(len(sys.ECUs))].Name,
		})
	}
	return fc, nil
}

// sweepBoth runs the production sweep on the prepared incumbent sys and
// the reference sweep on sys itself, and fails on any difference in
// their Metrics.
func sweepBoth(t *testing.T, ev *Evaluator, sys *model.System) {
	t.Helper()
	bound, err := ev.Bind(sys)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	prep, err := bound.Prepare(sys.Mapping)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	got, want := Metrics{Feasible: true}, Metrics{Feasible: true}
	bound.red.run(&got, prep, &noDelta)
	comps, ecus := bindComps(sys), bindECUs(sys)
	newRefRedCheck(comps, ecus, bound.cons, newRefView(sys, comps, ecus)).run(&want)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sweep diverges from the reference under %+v\nmapping:   %v\nreference: %+v\nsweep:     %+v",
			bound.cons.Faults, sys.Mapping, want, got)
	}
}

// FuzzFaultSweep holds the per-Bind fault plan and the bucketed default
// sweep to the reference O(events × groups) sweep, and the prepared
// scorer to the reference scorer, under random replicated systems,
// mappings and fault models: explicit ECU, bus and ECU+bus losses,
// malformed units, k up to 3, Soft and IncludeSingletons.
func FuzzFaultSweep(f *testing.F) {
	// The redundancy fixture: Ctrl with one passive standby.
	f.Add([]byte{0, 0, 0})
	// Vehicle, place workload's model (Soft + singletons), two
	// replicated components.
	f.Add([]byte{1, 0, 2, 5, 1, 0, 17, 1, 3, 0})
	// Fixture, second channel on e2, k=2 over an ECU, a bus and a
	// correlated loss, one malformed unit.
	f.Add([]byte{0, 2, 1, 1, 1, 1, 16, 0, 4, 0, 1, 0, 0, 1, 0, 1, 0, 2, 1, 0, 1, 0, 0, 2, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 2})
	// Vehicle, hard default model with k=3 and a tight cap.
	f.Add([]byte{1, 0, 3, 2, 2, 1, 9, 2, 20, 1, 24, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		fc, err := decodeFuzzCase(&in)
		if err != nil {
			t.Skip(err)
		}
		ev := NewEvaluator(fc.cons)
		bound, err := ev.Bind(fc.sys)
		if err != nil {
			t.Skip(err) // not a valid topology: nothing to score
		}
		prep, err := bound.Prepare(fc.sys.Mapping)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		sweepBoth(t, ev, fc.sys)
		if want, got := refEvaluate(ev, fc.sys), prep.Evaluate(); !reflect.DeepEqual(want, got) {
			t.Fatalf("prepared incumbent diverges\nreference: %+v\nprepared:  %+v", want, got)
		}
		cur := fc.sys.Clone()
		for _, mv := range fc.moves {
			cand := cur.Clone()
			cand.Mapping[mv[0]] = mv[1]
			want := refEvaluate(ev, cand)
			if got := prep.EvaluateMove(mv[0], mv[1]); !reflect.DeepEqual(want, got) {
				t.Fatalf("move %s->%s diverges\nreference: %+v\ndelta:     %+v", mv[0], mv[1], want, got)
			}
			sweepBoth(t, ev, cand)
			if err := prep.Apply(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
			cur = cand
		}
	})
}
