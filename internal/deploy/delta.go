package deploy

// A candidate that differs from the incumbent by ONE mapping entry should
// not cost O(system) to score. Prepared is the delta evaluator on top of
// Bound and the only scorer the searches use: it retains the incumbent's
// per-ECU accumulators and schedulability verdicts, and EvaluateMove
// re-derives only the two ECUs a move touches. The metrics are
// bit-identical to the unbound Evaluator.Evaluate — same summation order,
// same violation strings in the same order — which stays the reference
// oracle (TestPreparedEvaluateMoveMatchesBoundEvaluate and the random
// walks in redundant_test.go and faultmodel_test.go hold the two paths
// together).

import (
	"fmt"
	"sync"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// ecuAcc is one ECU's per-candidate accumulator state, retained per
// incumbent.
type ecuAcc struct {
	load        float64
	memory      int
	hosts       bool
	worst, best model.ASIL
	protos      int // hosted analyzable runnable count, rate-less included
}

// moveKey identifies one dirty-ECU recomputation: ECU index, the comp
// index leaving it (or -1) and the comp index joining it (or -1).
type moveKey struct{ idx, skip, add int }

type moveEntry struct {
	acc ecuAcc
	msg string
}

// Prepared scores single-component moves against an incumbent mapping in
// O(dirty ECUs) instead of O(system). EvaluateMove is read-only and safe
// for concurrent use (parallel steepest descent scores all moves of a
// round concurrently); Apply commits a move and is not.
type Prepared struct {
	b *Bound
	// curIdx is the incumbent as comp index -> ECU index, so the hot loops
	// compare integers instead of hashing names.
	curIdx []int
	// Per-ECU incumbent state, indexed like b.ecus.
	accs     []ecuAcc
	schedMsg []string // RTA violation message, "" when schedulable/skipped
	// memo retains dirty-ECU recomputations against the current
	// incumbent: a search rescoring its neighborhood between accepted
	// moves hits the same (ECU, leave, join) combinations over and over.
	// Apply invalidates the entries of the two ECUs it dirties.
	mu   sync.RWMutex
	memo map[moveKey]moveEntry
}

// Prepare binds the evaluator state to an incumbent mapping. It rejects
// mappings outside the DSE invariant — every component mapped to a known
// ECU, no stray entries — because only there does the delta path
// reproduce the unbound Evaluate exactly; a search bootstraps from
// Greedy instead.
func (b *Bound) Prepare(mapping map[string]string) (*Prepared, error) {
	if len(mapping) != len(b.comps) {
		return nil, fmt.Errorf("deploy: prepare: mapping has %d entries for %d components", len(mapping), len(b.comps))
	}
	p := &Prepared{
		b:        b,
		curIdx:   make([]int, len(b.comps)),
		accs:     make([]ecuAcc, len(b.ecus)),
		schedMsg: make([]string, len(b.ecus)),
	}
	for i := range b.comps {
		ecu, ok := mapping[b.comps[i].name]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: component %s is not mapped", b.comps[i].name)
		}
		ei, ok := b.ecuIdx[ecu]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: %s mapped to unknown ECU %q", b.comps[i].name, ecu)
		}
		p.curIdx[i] = ei
	}
	for i := range b.ecus {
		p.accs[i], p.schedMsg[i] = p.computeECU(i, -1, -1)
	}
	return p, nil
}

// computeECU re-derives one ECU's accumulator and schedulability verdict,
// reproducing the unbound path's per-component accumulation order
// (AnalyzedLoad) and task-set ranking (taskset.Build) exactly. The hosted
// set is the incumbent's, minus comp index skip, plus comp index add (-1
// for none) — the two adjustments a single-component move needs.
func (p *Prepared) computeECU(idx, skip, add int) (ecuAcc, string) {
	b := p.b
	name := b.ecus[idx].name
	speed := b.ecus[idx].speed
	var a ecuAcc
	var protos []*protoTask
	for i := range b.comps {
		if (p.curIdx[i] != idx || i == skip) && i != add {
			continue
		}
		c := &b.comps[i]
		if !a.hosts || c.asil < a.best {
			a.best = c.asil
		}
		a.hosts = true
		a.memory += c.memoryKB
		if c.asil > a.worst {
			a.worst = c.asil
		}
		if c.passive {
			continue // suspended until promotion: no normal-case demand
		}
		for _, t := range c.loadTerms {
			a.load += t / speed
		}
		for j := range c.protos {
			protos = append(protos, &c.protos[j])
		}
	}
	a.protos = len(protos)
	if len(protos) == 0 {
		return a, ""
	}
	sortProtos(protos)
	var tasks []sched.Task
	for rank, pt := range protos {
		if pt.period <= 0 {
			continue
		}
		tasks = append(tasks, sched.Task{
			Name: pt.name, C: sim.Duration(float64(pt.wcet) / speed),
			T: pt.period, D: pt.deadline, Priority: 1000 - rank,
		})
	}
	if len(tasks) == 0 {
		return a, ""
	}
	ok, err := b.ev.RTA.Check(tasks)
	if err != nil {
		return a, fmt.Sprintf("%s: RTA failed: %v", name, err)
	}
	if !ok {
		return a, fmt.Sprintf("%s unschedulable under response-time analysis", name)
	}
	return a, ""
}

// computeECUCached memoizes computeECU against the current incumbent.
func (p *Prepared) computeECUCached(idx, skip, add int) (ecuAcc, string) {
	k := moveKey{idx, skip, add}
	p.mu.RLock()
	e, ok := p.memo[k]
	p.mu.RUnlock()
	if ok {
		return e.acc, e.msg
	}
	acc, msg := p.computeECU(idx, skip, add)
	p.mu.Lock()
	if p.memo == nil {
		p.memo = map[moveKey]moveEntry{}
	}
	p.memo[k] = moveEntry{acc, msg}
	p.mu.Unlock()
	return acc, msg
}

// EvaluateMove scores moving comp to ecu without committing it. An
// unknown component or ECU name scores infeasible.
func (p *Prepared) EvaluateMove(comp, ecu string) Metrics {
	ci, ok := p.b.compIdx[comp]
	if !ok {
		return Metrics{Violations: []string{fmt.Sprintf("mapping references unknown component %q", comp)}}
	}
	ei, ok := p.b.ecuIdx[ecu]
	if !ok {
		return Metrics{Violations: []string{fmt.Sprintf("mapping of %s references unknown ECU %q", comp, ecu)}}
	}
	return p.evaluateMove(ci, ei)
}

// evaluateMove is EvaluateMove by component and ECU index.
func (p *Prepared) evaluateMove(ci, ei int) Metrics {
	oi := p.curIdx[ci]
	if ei == oi {
		// The move is a no-op: the candidate mapping IS the incumbent.
		return p.Evaluate()
	}
	accOld, msgOld := p.computeECUCached(oi, ci, -1)
	accNew, msgNew := p.computeECUCached(ei, -1, ci)
	get := func(i int) (ecuAcc, string) {
		switch i {
		case oi:
			return accOld, msgOld
		case ei:
			return accNew, msgNew
		}
		return p.accs[i], p.schedMsg[i]
	}
	return p.assemble(ci, ei, get)
}

// Evaluate scores the incumbent mapping itself from the retained state.
func (p *Prepared) Evaluate() Metrics {
	return p.assemble(-1, -1, func(i int) (ecuAcc, string) { return p.accs[i], p.schedMsg[i] })
}

// Apply commits a previously scored move into the incumbent state. Not
// safe for concurrent use with EvaluateMove.
func (p *Prepared) Apply(comp, ecu string) error {
	ci, ok := p.b.compIdx[comp]
	if !ok {
		return fmt.Errorf("deploy: apply: unknown component %q", comp)
	}
	ei, ok := p.b.ecuIdx[ecu]
	if !ok {
		return fmt.Errorf("deploy: apply: unknown ECU %q", ecu)
	}
	p.apply(ci, ei)
	return nil
}

// apply is Apply by component and ECU index.
func (p *Prepared) apply(ci, ei int) {
	oi := p.curIdx[ci]
	p.curIdx[ci] = ei
	// Only the two dirty ECUs' memo entries are stale: a move between oi
	// and ei cannot change any other ECU's hosted set, and within a memo
	// entry the moved component's own membership is forced by skip/add
	// rather than read from the incumbent. Keeping the rest warm is what
	// lets a search reuse scores across accepted moves.
	p.mu.Lock()
	for k := range p.memo {
		if k.idx == oi || k.idx == ei {
			delete(p.memo, k)
		}
	}
	p.mu.Unlock()
	p.accs[oi], p.schedMsg[oi] = p.computeECU(oi, -1, -1)
	if ei != oi {
		p.accs[ei], p.schedMsg[ei] = p.computeECU(ei, -1, -1)
	}
}

// Mapping returns a copy of the incumbent mapping.
func (p *Prepared) Mapping() map[string]string { return p.b.mapping(p.curIdx) }

// ecuOf resolves a component's ECU index under the incumbent with one
// moved component overridden (moved -1 for none).
func (p *Prepared) ecuOf(ci, moved, target int) int {
	if ci == moved {
		return target
	}
	return p.curIdx[ci]
}

// assemble folds per-ECU state into Metrics with the unbound path's exact
// term order: ECU count, harness sum in connector order, per-ECU checks in
// declaration order, communication verdict, RTA verdicts in sorted ECU
// order, then load variance. The candidate mapping is the incumbent with
// comp index moved relocated to ECU index target.
func (p *Prepared) assemble(moved, target int, get func(int) (ecuAcc, string)) Metrics {
	b := p.b
	cons := b.ev.Cons
	cons.fill()
	m := Metrics{Feasible: true}
	if err := cons.Validate(); err != nil {
		m.Feasible = false
		m.Violations = append(m.Violations, err.Error())
		return m
	}
	for i := range b.ecus {
		if a, _ := get(i); a.hosts {
			m.ECUs++
		}
	}
	for _, c := range b.conns {
		if si, di := p.ecuOf(c.from, moved, target), p.ecuOf(c.to, moved, target); si != di {
			m.Harness += b.dist[si][di]
		}
	}
	var loads []float64
	for i := range b.ecus {
		a, _ := get(i)
		if !a.hosts {
			continue
		}
		e := &b.ecus[i]
		loads = append(loads, a.load)
		if a.load > m.MaxLoad {
			m.MaxLoad = a.load
		}
		if a.load > cons.MaxUtilization {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s overloaded: %.3f > %.3f", e.name, a.load, cons.MaxUtilization))
		}
		if cons.RespectMemory && e.memoryKB > 0 && a.memory > e.memoryKB {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s out of memory: %d > %d KB", e.name, a.memory, e.memoryKB))
		}
		if cons.RespectASIL && a.worst > e.maxASIL {
			m.Feasible = false
			m.Violations = append(m.Violations, fmt.Sprintf("%s hosts %v components but qualifies only for %v", e.name, a.worst, e.maxASIL))
		}
		if msg := asilSpreadViolation(e.name, a.worst, a.best, cons.MaxASILSpread); msg != "" {
			m.Feasible = false
			m.Violations = append(m.Violations, msg)
		}
	}
	rc := &redCheck{
		comps: b.comps, groups: b.groups, ecus: b.ecus, cons: cons, rta: b.ev.RTA,
		ecuOf: func(ci int) (int, bool) { return p.ecuOf(ci, moved, target), true },
		load:  func(ei int) float64 { a, _ := get(ei); return a.load },
		hosts: func(ei int) bool { a, _ := get(ei); return a.hosts },
	}
	rc.run(&m)
	if err := p.commCheck(moved, target); err != nil {
		m.Feasible = false
		m.Violations = append(m.Violations, err.Error())
	}
	if cons.RequireSchedulable {
		for _, i := range b.ecuByName {
			a, msg := get(i)
			if a.protos == 0 || msg == "" {
				continue
			}
			m.Feasible = false
			m.Violations = append(m.Violations, msg)
		}
	}
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

// commCheck reproduces the communication-feasibility verdict vfb.Resolve
// reaches on the candidate mapping — the same first error, without
// deriving routes: every route-producing remote connector needs a
// reachable ECU pair. Resolve's other failures (unknown or unmapped
// names) cannot occur here: Prepare validated the incumbent and a move
// only substitutes known names.
func (p *Prepared) commCheck(moved, target int) error {
	for _, c := range p.b.conns {
		si, di := p.ecuOf(c.from, moved, target), p.ecuOf(c.to, moved, target)
		if si == di || !c.needsPath {
			continue
		}
		if err := p.b.path[si][di]; err != nil {
			return err
		}
	}
	return nil
}
