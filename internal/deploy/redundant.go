package deploy

// Fail-operational feasibility: a redundant deployment is only worth its
// standbys if every fault event of the configured model (default: any
// single hosted-ECU failure; see FaultModel for k-of-n, bus and
// correlated losses) leaves each replica group with a promotable
// instance AND the promoted instance's ECU still fits within its
// capacity after absorbing the failed-over load. redCheck is that
// analysis, shared verbatim by the full (Evaluator.Evaluate) and delta
// (Prepared.assemble) paths so the two stay DeepEqual-identical — same
// violations in the same order, same Survivability float.

import (
	"fmt"
	"sort"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// promo is one fail-over promotion a single-ECU failure forces: the
// standby (component index) and the ECU index absorbing it.
type promo struct{ standby, target int }

// sortProtos orders a proto subset by the precomputed global ord —
// identical to taskset.Build's stable (period, name) sort restricted to
// the subset.
func sortProtos(protos []*protoTask) {
	sort.Slice(protos, func(i, j int) bool { return protos[i].ord < protos[j].ord })
}

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

// redCheck runs the fail-operational checks of one candidate mapping.
// The closures abstract over how each evaluation path stores its per-ECU
// state; everything observable (violation strings, their order, the
// Survivability value) is computed here so the paths cannot drift.
type redCheck struct {
	comps  []boundComp
	groups []redGroup
	ecus   []boundECU
	cons   Constraints // filled
	rta    *sched.Cache
	// ecuOf resolves a component index to its candidate ECU index; false
	// when the component is unmapped.
	ecuOf func(ci int) (int, bool)
	// load returns the normal-case analyzed load of one ECU index.
	load func(ei int) float64
	// hosts reports whether the ECU index hosts any component.
	hosts func(ei int) bool
}

// run appends fail-operational violations to m and sets m.Survivability:
// the fraction of (fault event, replica group) pairs the deployment
// survives with a valid fail-over. The event universe comes from
// cons.Faults; its zero value sweeps every single hosted-ECU failure,
// reproducing the v1 analysis exactly. 1.0 when nothing is scored.
func (rc *redCheck) run(m *Metrics) {
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
	for _, ev := range rc.lossEvents(m) {
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
// passive standbys', ranked rate-monotonically in the shared global proto
// order (the exact ranking taskset.Build would derive for that hosting).
func (rc *redCheck) failoverSchedulable(target int, promos []promo) bool {
	promoted := make(map[int]bool, len(promos))
	for _, pr := range promos {
		if pr.target == target && rc.comps[pr.standby].passive {
			promoted[pr.standby] = true
		}
	}
	var protos []*protoTask
	for ci := range rc.comps {
		c := &rc.comps[ci]
		ce, ok := rc.ecuOf(ci)
		hosted := ok && ce == target && !c.passive
		if !hosted && !promoted[ci] {
			continue
		}
		for j := range c.protos {
			protos = append(protos, &c.protos[j])
		}
	}
	sortProtos(protos)
	speed := rc.ecus[target].speed
	var tasks []sched.Task
	for rank, p := range protos {
		if p.period <= 0 {
			continue
		}
		tasks = append(tasks, sched.Task{
			Name: p.name, C: sim.Duration(float64(p.wcet) / speed),
			T: p.period, D: p.deadline, Priority: 1000 - rank,
		})
	}
	if len(tasks) == 0 {
		return true
	}
	ok, err := rc.rta.Check(tasks)
	return err == nil && ok
}

// sameReplicaGroup reports whether two distinct components are instances
// of one replica group — the pairs anti-affinity keeps apart.
func sameReplicaGroup(a, b *model.SWC) bool {
	return a.ReplicaOf == b.Name || b.ReplicaOf == a.Name ||
		(a.ReplicaOf != "" && a.ReplicaOf == b.ReplicaOf)
}

// asilSpreadViolation formats the MaxASILSpread violation for one ECU's
// criticality span, "" when admissible. Shared by every evaluation path
// (and fits) so the diagnostic cannot drift between them.
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
