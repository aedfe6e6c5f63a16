package deploy

// The reference scorer: a mapping's Metrics derived straight from the
// system — AnalyzedLoad, UsedECUs, HarnessLength, vfb.Resolve and
// taskset.Build — with the fail-operational check run by the reference
// sweep (refRedCheck). Production turns every mapping into Metrics
// through Bind and Prepare; the tests that hold Prepared to an
// independent derivation compare it with refEvaluate.

import (
	"fmt"
	"sort"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

// refView is the reference's view of a candidate mapping, read off the
// system: each component's ECU index (-1 when unmapped), each ECU's
// analyzed load and whether it hosts anything.
type refView struct {
	ecu    []int
	loads  []float64
	hosted []bool
}

func newRefView(sys *model.System, comps []boundComp, ecus []boundECU) refView {
	ecuIdx := make(map[string]int, len(ecus))
	for i := range ecus {
		ecuIdx[ecus[i].name] = i
	}
	v := refView{ecu: make([]int, len(comps)), loads: make([]float64, len(ecus)), hosted: make([]bool, len(ecus))}
	for ci := range comps {
		v.ecu[ci] = -1
		if ei, ok := ecuIdx[sys.Mapping[comps[ci].name]]; ok {
			v.ecu[ci] = ei
			v.hosted[ei] = true
		}
	}
	for ei := range ecus {
		v.loads[ei] = sys.AnalyzedLoad(ecus[ei].name)
	}
	return v
}

// ecuOf resolves a component index to its ECU index; false when the
// component is unmapped.
func (v refView) ecuOf(ci int) (int, bool) { return v.ecu[ci], v.ecu[ci] >= 0 }

func (v refView) load(ei int) float64 { return v.loads[ei] }

func (v refView) hosts(ei int) bool { return v.hosted[ei] }

// refEvaluate computes the metrics of the system's current mapping term
// by term, in the order Prepared.assemble folds them. Unlike the
// production scorer it also scores partial mappings and topologies
// model.Validate would reject.
func refEvaluate(ev *Evaluator, sys *model.System) Metrics {
	cons := ev.Cons
	cons.fill()
	m := Metrics{Feasible: true}
	if err := cons.Validate(); err != nil {
		m.Feasible = false
		m.Violations = append(m.Violations, err.Error())
		return m
	}
	m.ECUs = len(sys.UsedECUs())
	m.Harness = sys.HarnessLength()
	// IncludeSingletons scores unreplicated components too, so the check
	// must run even on systems without any standby.
	hasRed := cons.Faults.IncludeSingletons
	for _, c := range sys.Components {
		if c.ReplicaOf != "" {
			hasRed = true
		}
	}
	// Per-ECU checks.
	var loads []float64
	for _, e := range sys.ECUs {
		load := sys.AnalyzedLoad(e.Name)
		memory := 0
		hosts := false
		worstASIL, bestASIL := model.QM, model.QM
		for _, c := range sys.Components {
			if sys.Mapping[c.Name] != e.Name {
				continue
			}
			if !hosts || c.ASIL < bestASIL {
				bestASIL = c.ASIL
			}
			hosts = true
			memory += c.MemoryKB
			if c.ASIL > worstASIL {
				worstASIL = c.ASIL
			}
		}
		if !hosts {
			continue
		}
		loads = append(loads, load)
		if load > m.MaxLoad {
			m.MaxLoad = load
		}
		if load > cons.MaxUtilization {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s overloaded: %.3f > %.3f", e.Name, load, cons.MaxUtilization))
		}
		if cons.RespectMemory && e.MemoryKB > 0 && memory > e.MemoryKB {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s out of memory: %d > %d KB", e.Name, memory, e.MemoryKB))
		}
		if cons.RespectASIL && worstASIL > e.MaxASIL {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s hosts %v components but qualifies only for %v", e.Name, worstASIL, e.MaxASIL))
		}
		if msg := asilSpreadViolation(e.Name, worstASIL, bestASIL, cons.MaxASILSpread); msg != "" {
			m.Feasible = false
			m.Violations = append(m.Violations, msg)
		}
	}
	// Fail-operational feasibility through the reference sweep.
	m.Survivability = 1
	if hasRed {
		comps, ecus := bindComps(sys), bindECUs(sys)
		newRefRedCheck(comps, ecus, cons, newRefView(sys, comps, ecus)).run(&m)
	}
	// Communication feasibility: every remote connector needs a shared bus.
	if _, err := vfb.Resolve(sys); err != nil {
		m.Feasible = false
		m.Violations = append(m.Violations, err.Error())
	}
	// Schedulability feasibility: exact per-ECU RTA in sorted ECU order.
	if cons.RequireSchedulable {
		tsets, _ := taskset.Build(sys)
		var ecus []string
		for e := range tsets {
			ecus = append(ecus, e)
		}
		sort.Strings(ecus)
		for _, ecu := range ecus {
			ok, _, err := sched.Schedulable(tsets[ecu])
			if err != nil {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf("%s: RTA failed: %v", ecu, err))
				continue
			}
			if !ok {
				m.Feasible = false
				m.Violations = append(m.Violations, fmt.Sprintf("%s unschedulable under response-time analysis", ecu))
			}
		}
	}
	// Load variance over used ECUs.
	if len(loads) > 0 {
		mean := 0.0
		for _, l := range loads {
			mean += l
		}
		mean /= float64(len(loads))
		for _, l := range loads {
			m.LoadVar += (l - mean) * (l - mean)
		}
		m.LoadVar /= float64(len(loads))
	}
	return m
}
