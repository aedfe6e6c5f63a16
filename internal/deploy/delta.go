package deploy

// A candidate that differs from the incumbent by ONE mapping entry should
// not cost O(system) to score. Prepared is the delta evaluator on top of
// Bound and the only code in this package that turns a mapping into
// Metrics: Evaluator.Evaluate, Greedy, Place and every search score
// through it. It retains the incumbent's per-ECU accumulators and
// schedulability verdicts, and a move re-derives only the two ECUs it
// touches. It also retains each fault event's fail-operational result
// and the connectors that fail the communication check: a move of one
// component strikes again only the fault events that read its two ECUs
// or its replica group (redundant.go), and re-checks only its own
// connectors. The harness and the load variance are still summed over
// every connector and ECU, in declaration order, so their floating-point
// sums stay bit-identical. The independent oracle is the straight-line
// derivation kept as a test (refEvaluate, evaluate_ref_test.go), which
// re-derives every term from the system itself;
// TestPreparedEvaluateMoveMatchesBoundEvaluate, the random walks in
// redundant_test.go and faultmodel_test.go, and FuzzFaultSweep hold
// Prepared to it — same summation order, same violation strings in the
// same order.
//
// The searches score cost first. Most candidates of a round never win,
// so scoreMove in cost-only mode formats no violation text, stops at the
// first infeasibility (the cost is then +Inf anyway) and leaves the two
// dirty ECUs' response-time verdicts unchecked; schedulable supplies
// them for the few moves that could still win. That order is exact: RTA
// can only turn a feasible move infeasible, and the cost-only score of a
// feasible move is the full score bit for bit (FuzzCostFirst holds the
// searches to their score-everything references).

import (
	"fmt"
	"math"

	"autorte/internal/model"
	"autorte/internal/taskset"
)

// ecuAcc is one ECU's per-candidate accumulator state, retained per
// incumbent.
type ecuAcc struct {
	load        float64
	memory      int
	hosts       bool
	worst, best model.ASIL
}

// moveEntry is one memoized dirty-ECU recomputation. checked records
// whether msg holds its RTA verdict: cost-only scoring leaves it out, and
// a move that could still win fills it in, at most once per incumbent.
// at is the epoch it was computed in, 0 for none.
type moveEntry struct {
	acc     ecuAcc
	msg     string
	checked bool
	at      uint64
}

// Prepared scores single-component moves against an incumbent mapping in
// O(dirty ECUs) instead of O(system); Apply commits a move. Not safe for
// concurrent use: one per search thread.
type Prepared struct {
	b *Bound
	// curIdx is the incumbent as comp index -> ECU index, so the hot loops
	// compare integers instead of hashing names.
	curIdx []int
	// Per-ECU incumbent state, indexed like b.ecus.
	accs     []ecuAcc
	schedMsg []string // RTA violation message, "" when schedulable/skipped
	// The memo retains dirty-ECU recomputations against the incumbent: a
	// search rescoring its neighborhood between accepted moves hits the
	// same ECUs with the same component leaving or joining over and
	// over. leave[ci] is comp ci's ECU without it, join[ci*len(ecus)+e]
	// ECU e with ci added; both are allocated by the first scored move.
	// An entry is current while it is newer than the last applied move
	// that dirtied its ECU: epoch counts applied moves from 1, and
	// changed holds each ECU's last dirtying epoch.
	leave, join []moveEntry
	epoch       uint64
	changed     []uint64
	// faults is the fail-operational sweep's state for the incumbent
	// (redundant.go); commFail lists the connectors the incumbent fails
	// commCheck on, in connector order.
	faults   faultState
	commFail []int
}

// Prepare binds the evaluator state to an incumbent mapping. It rejects
// mappings outside the DSE invariant — every component mapped to a known
// ECU, no stray entries: Evaluator.Evaluate reports the refusal as the
// mapping's one violation, and a search bootstraps from Greedy instead.
func (b *Bound) Prepare(mapping map[string]string) (*Prepared, error) {
	cur := make([]int, len(b.comps))
	for i := range b.comps {
		ecu, ok := mapping[b.comps[i].name]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: component %s is not mapped", b.comps[i].name)
		}
		ei, ok := b.ecuIdx[ecu]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: %s mapped to unknown ECU %q", b.comps[i].name, ecu)
		}
		cur[i] = ei
	}
	// Every component is mapped, so a surplus entry names none of them.
	if len(mapping) != len(b.comps) {
		return nil, fmt.Errorf("deploy: prepare: mapping has %d entries for %d components", len(mapping), len(b.comps))
	}
	return b.prepare(cur), nil
}

// prepare is Prepare from a complete comp index -> ECU index assignment,
// which the Prepared takes over.
func (b *Bound) prepare(cur []int) *Prepared {
	p := &Prepared{
		b:        b,
		curIdx:   cur,
		accs:     make([]ecuAcc, len(b.ecus)),
		schedMsg: make([]string, len(b.ecus)),
		epoch:    1,
		changed:  make([]uint64, len(b.ecus)),
	}
	for i := range b.ecus {
		p.accs[i], p.schedMsg[i] = b.computeECU(cur, i, -1, -1, true)
	}
	b.red.prepare(p)
	p.commFail = p.failingConns(nil)
	return p
}

// computeECU re-derives one ECU's accumulator, summing over components
// in declaration order, and, when verdict is set, the schedulability
// verdict of the task set taskset.Rank derives from the hosted protos.
// The hosted set is the one cur maps to ECU index idx (-1 entries are
// unplaced), minus comp index skip, plus comp index add (-1 for none) —
// the two adjustments a single-component move needs. The verdict is ""
// when schedulable, when not asked for, and without RequireSchedulable:
// nothing reads it then.
func (b *Bound) computeECU(cur []int, idx, skip, add int, verdict bool) (ecuAcc, string) {
	name := b.ecus[idx].name
	speed := b.ecus[idx].speed
	needRTA := verdict && b.cons.RequireSchedulable
	var a ecuAcc
	var hosted []*taskset.Proto
	for i := range b.comps {
		if (cur[i] != idx || i == skip) && i != add {
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
		if needRTA {
			for j := range c.protos {
				hosted = append(hosted, &c.protos[j])
			}
		}
	}
	if len(hosted) == 0 {
		return a, ""
	}
	tasks, _ := taskset.Rank(hosted, speed, nil, nil)
	if len(tasks) == 0 {
		return a, ""
	}
	ok, err := b.ev.schedulable(tasks)
	if err != nil {
		return a, fmt.Sprintf("%s: RTA failed: %v", name, err)
	}
	if !ok {
		return a, fmt.Sprintf("%s unschedulable under response-time analysis", name)
	}
	return a, ""
}

// dirty returns the memoized recomputation of ECU index idx when comp
// index ci leaves it (idx is ci's incumbent ECU) or joins it, with its
// RTA verdict when verdict is set.
func (p *Prepared) dirty(ci, idx int, verdict bool) (ecuAcc, string) {
	verdict = verdict && p.b.cons.RequireSchedulable
	if p.join == nil {
		p.leave = make([]moveEntry, len(p.b.comps))
		p.join = make([]moveEntry, len(p.b.comps)*len(p.b.ecus))
	}
	e, skip, add := &p.join[ci*len(p.b.ecus)+idx], -1, ci
	if idx == p.curIdx[ci] {
		e, skip, add = &p.leave[ci], ci, -1
	}
	if e.at > p.changed[idx] && (e.checked || !verdict) {
		return e.acc, e.msg
	}
	e.acc, e.msg = p.b.computeECU(p.curIdx, idx, skip, add, verdict)
	e.checked, e.at = verdict, p.epoch
	return e.acc, e.msg
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
	return p.scoreMove(ci, ei, true)
}

// scoreMove is EvaluateMove by component and ECU index. With full unset
// it scores cost-only: the Metrics may stop at the first infeasibility
// and carry no violations, and the two dirty ECUs' RTA verdicts are left
// to schedulable. Its Cost then equals the full one whenever that is
// finite.
func (p *Prepared) scoreMove(ci, ei int, full bool) Metrics {
	oi := p.curIdx[ci]
	if ei == oi {
		// The move is a no-op: the candidate mapping IS the incumbent.
		return p.Evaluate()
	}
	d := delta{moved: ci, target: ei, idx: [2]int{oi, ei}}
	d.acc[0], d.msg[0] = p.dirty(ci, oi, full)
	d.acc[1], d.msg[1] = p.dirty(ci, ei, full)
	return p.assemble(&d, full)
}

// schedulable reports whether the two ECUs moving comp index ci to ECU
// index ei dirties pass response-time analysis: the verdicts cost-only
// scoring leaves out. Always true without RequireSchedulable.
func (p *Prepared) schedulable(ci, ei int) bool {
	oi := p.curIdx[ci]
	if !p.b.cons.RequireSchedulable || ei == oi {
		return true
	}
	_, msgOld := p.dirty(ci, oi, true)
	_, msgNew := p.dirty(ci, ei, true)
	return msgOld == "" && msgNew == ""
}

// MoveCost is EvaluateMove(comp, ecu).Cost(obj), scored cost first: the
// dirty ECUs' response-time verdicts run only when the rest of the move
// is feasible, and no violation text is built.
func (p *Prepared) MoveCost(comp, ecu string, obj Objective) float64 {
	ci, okc := p.b.compIdx[comp]
	ei, oke := p.b.ecuIdx[ecu]
	if !okc || !oke {
		return math.Inf(1)
	}
	return p.moveCost(ci, ei, obj)
}

// moveCost is MoveCost by component and ECU index.
func (p *Prepared) moveCost(ci, ei int, obj Objective) float64 {
	if cost := p.scoreMove(ci, ei, false).Cost(obj); !math.IsInf(cost, 1) && p.schedulable(ci, ei) {
		return cost
	}
	return math.Inf(1)
}

// Evaluate scores the incumbent mapping itself from the retained state.
func (p *Prepared) Evaluate() Metrics {
	return p.assemble(&noDelta, true)
}

// Apply commits a previously scored move into the incumbent state.
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
	if ei == oi {
		return
	}
	red := p.b.red
	if len(red.groups) > 0 {
		red.markDirty(p, &delta{moved: ci, target: ei, idx: [2]int{oi, ei}})
	}
	p.curIdx[ci] = ei
	// Only the two dirty ECUs' memo entries are stale: a move between oi
	// and ei cannot change any other ECU's hosted set, and within a memo
	// entry the moved component's own membership is forced by skip/add
	// rather than read from the incumbent. Keeping the rest warm is what
	// lets a search reuse scores across accepted moves.
	p.changed[oi], p.changed[ei] = p.epoch, p.epoch
	p.epoch++
	p.accs[oi], p.schedMsg[oi] = p.b.computeECU(p.curIdx, oi, -1, -1, true)
	p.accs[ei], p.schedMsg[ei] = p.b.computeECU(p.curIdx, ei, -1, -1, true)
	if len(red.groups) > 0 {
		red.apply(p, ci)
	}
	p.commFail = p.failingConns(p.commFail[:0])
}

// Mapping returns a copy of the incumbent mapping.
func (p *Prepared) Mapping() map[string]string { return p.b.mapping(p.curIdx) }

// delta is a candidate relative to the incumbent: comp index moved
// relocated to ECU index target, and the state of the (at most) two ECUs
// that dirties. Unused indices hold -1.
type delta struct {
	moved, target int
	idx           [2]int
	acc           [2]ecuAcc
	msg           [2]string
}

// noDelta is the incumbent itself as a candidate.
var noDelta = delta{moved: -1, target: -1, idx: [2]int{-1, -1}}

// ecuOf resolves comp index ci's ECU index under the candidate.
func (p *Prepared) ecuOf(d *delta, ci int) int {
	if ci == d.moved {
		return d.target
	}
	return p.curIdx[ci]
}

// get returns ECU index i's state under the candidate.
func (p *Prepared) get(d *delta, i int) (ecuAcc, string) {
	for j, di := range d.idx {
		if di == i {
			return d.acc[j], d.msg[j]
		}
	}
	return p.accs[i], p.schedMsg[i]
}

// assemble folds the candidate d's per-ECU state into Metrics in a fixed
// term order: ECU count, harness sum in connector order, per-ECU checks
// in declaration order, the fail-operational check, communication
// verdict, RTA verdicts in sorted ECU order, then load variance. With
// full unset it formats no violation and returns at the first
// infeasibility: the cost is +Inf from there on.
func (p *Prepared) assemble(d *delta, full bool) Metrics {
	b := p.b
	cons := &b.cons
	m := Metrics{Feasible: true}
	if b.consErr != nil {
		m.Feasible = false
		m.Violations = append(m.Violations, b.consErr.Error())
		return m
	}
	for i := range b.ecus {
		if a, _ := p.get(d, i); a.hosts {
			m.ECUs++
		}
	}
	for _, c := range b.conns {
		if si, di := p.ecuOf(d, c.from), p.ecuOf(d, c.to); si != di {
			m.Harness += b.dist[si][di]
		}
	}
	for i := range b.ecus {
		a, _ := p.get(d, i)
		if !a.hosts {
			continue
		}
		e := &b.ecus[i]
		if a.load > m.MaxLoad {
			m.MaxLoad = a.load
		}
		if a.load > cons.MaxUtilization {
			m.Feasible = false
			if !full {
				return m
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s overloaded: %.3f > %.3f", e.name, a.load, cons.MaxUtilization))
		}
		if cons.RespectMemory && e.memoryKB > 0 && a.memory > e.memoryKB {
			m.Feasible = false
			if !full {
				return m
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s out of memory: %d > %d KB", e.name, a.memory, e.memoryKB))
		}
		if cons.RespectASIL && a.worst > e.maxASIL {
			m.Feasible = false
			if !full {
				return m
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s hosts %v components but qualifies only for %v", e.name, a.worst, e.maxASIL))
		}
		if msg := asilSpreadViolation(e.name, a.worst, a.best, cons.MaxASILSpread); msg != "" {
			m.Feasible = false
			if !full {
				return m
			}
			m.Violations = append(m.Violations, msg)
		}
	}
	b.red.run(&m, p, d, full)
	if !m.Feasible && !full {
		return m
	}
	if err := p.commCheck(d); err != nil {
		m.Feasible = false
		if !full {
			return m
		}
		m.Violations = append(m.Violations, err.Error())
	}
	if cons.RequireSchedulable {
		for _, i := range b.ecuByName {
			if _, msg := p.get(d, i); msg != "" {
				m.Feasible = false
				if !full {
					return m
				}
				m.Violations = append(m.Violations, msg)
			}
		}
	}
	// Load variance over used ECUs, summed in declaration order.
	if m.ECUs > 0 {
		mean := 0.0
		for i := range b.ecus {
			if a, _ := p.get(d, i); a.hosts {
				mean += a.load
			}
		}
		mean /= float64(m.ECUs)
		for i := range b.ecus {
			if a, _ := p.get(d, i); a.hosts {
				m.LoadVar += (a.load - mean) * (a.load - mean)
			}
		}
		m.LoadVar /= float64(m.ECUs)
	}
	return m
}

// commCheck reproduces the communication-feasibility verdict vfb.Resolve
// reaches on the candidate mapping — the same first error, without
// deriving routes: every route-producing remote connector needs a
// reachable ECU pair. Resolve's other failures (unknown or unmapped
// names) cannot occur here: Prepare validated the incumbent and a move
// only substitutes known names. Only the moved component's connectors
// can change their verdict, so the first error is the first of the
// incumbent's failing connectors that does not touch it, unless one of
// its own connectors fails earlier.
func (p *Prepared) commCheck(d *delta) error {
	b := p.b
	first := len(b.conns)
	for _, k := range p.commFail {
		if c := &b.conns[k]; c.from != d.moved && c.to != d.moved {
			first = k
			break
		}
	}
	if d.moved >= 0 {
		for _, k := range b.connsOf(d.moved) {
			if k >= first {
				break
			}
			if p.connErr(d, k) != nil {
				first = k
				break
			}
		}
	}
	if first == len(b.conns) {
		return nil
	}
	return p.connErr(d, first)
}

// connErr is connector k's communication verdict under the candidate d:
// nil unless it produces routes between two ECUs no path joins.
func (p *Prepared) connErr(d *delta, k int) error {
	c := &p.b.conns[k]
	si, di := p.ecuOf(d, c.from), p.ecuOf(d, c.to)
	if si == di || !c.needsPath {
		return nil
	}
	return p.b.path[si][di]
}

// failingConns appends to dst the connectors the incumbent fails
// commCheck on, in connector order.
func (p *Prepared) failingConns(dst []int) []int {
	for k := range p.b.conns {
		if p.connErr(&noDelta, k) != nil {
			dst = append(dst, k)
		}
	}
	return dst
}
