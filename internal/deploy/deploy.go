// Package deploy explores the design space of SWC-to-ECU mappings: the
// federated → integrated consolidation study of §4. Given a vehicle with a
// federated mapping (one subsystem per ECU cluster), it searches for
// mappings that minimize ECU count, wiring harness length and load
// imbalance while respecting schedulability, memory and criticality
// constraints. Under RequireSchedulable every search runs response-time
// analysis directly on the one or two ECUs a move dirties; a Prepared
// incumbent memoizes those recomputations until the next applied move,
// and no analysis cache outlives a search.
package deploy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/par"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// RejectAllLoad is an explicit MaxUtilization sentinel meaning "no compute
// load is admissible on any ECU". It is distinct from the zero value,
// which selects the 0.69 default — a caller who wants to reject any load
// must say so explicitly, because 0 is indistinguishable from "unset".
const RejectAllLoad = -1.0

// Constraints bound feasible mappings.
type Constraints struct {
	// MaxUtilization caps per-ECU load. Valid settings:
	//
	//	0            unset; defaults to 0.69, the asymptotic
	//	             rate-monotonic bound — conservative on purpose so a
	//	             verified DSE result stays schedulable under RTA
	//	(0, 1]       explicit cap
	//	negative     RejectAllLoad: no load is admissible
	//	> 1 / NaN    invalid (see Validate)
	MaxUtilization float64
	// RespectASIL requires ECU.MaxASIL >= every hosted component's ASIL.
	RespectASIL bool
	// RespectMemory enforces ECU memory capacity.
	RespectMemory bool
	// RequireSchedulable additionally runs fixed-priority response-time
	// analysis per hosted ECU during evaluation and rejects mappings with
	// an unschedulable ECU. Stricter than the utilization cap alone.
	RequireSchedulable bool
	// MaxASILSpread bounds how far apart the criticality levels co-located
	// on one ECU may lie (freedom-from-interference: a QM component next
	// to an ASIL-D one forces the whole ECU to the strictest qualification
	// regime). 0 is unset (no bound); a positive value caps
	// worst−best; a negative value is strict — one level per ECU.
	MaxASILSpread int
	// Faults configures the k-of-n fault universe the fail-operational
	// analysis sweeps. The zero value is the v1 model: every single
	// hosted ECU fails alone, uncovered events are hard violations.
	Faults FaultModel
}

func (c *Constraints) fill() {
	if c.MaxUtilization == 0 {
		c.MaxUtilization = 0.69
	}
}

// Validate rejects constraint settings outside the documented range: a
// utilization cap above 1 (meaningless for schedulability) or a
// non-finite cap. Negative caps are the explicit RejectAllLoad sentinel
// and are valid.
func (c Constraints) Validate() error {
	if math.IsNaN(c.MaxUtilization) || math.IsInf(c.MaxUtilization, 0) {
		return fmt.Errorf("deploy: MaxUtilization must be finite, got %v", c.MaxUtilization)
	}
	if c.MaxUtilization > 1 {
		return fmt.Errorf("deploy: MaxUtilization %.3f above 1 can never hold under analysis; use (0,1], 0 for the default, or a negative value to reject all load", c.MaxUtilization)
	}
	return nil
}

// Objective weighs the cost terms.
type Objective struct {
	WECU     float64 // per used ECU (hardware + wiring + contact points)
	WHarness float64 // per meter of harness
	WLoad    float64 // per unit of load variance (balance)
	// WAvail prices unavailability: the cost charges WAvail times
	// (1 − Survivability), so a fully fail-operational deployment pays
	// nothing and one that loses every replica group to every ECU failure
	// pays the full weight. 0 (the default) ignores the term.
	WAvail float64
}

// DefaultObjective prioritizes ECU elimination, then harness, then balance.
func DefaultObjective() Objective { return Objective{WECU: 1000, WHarness: 10, WLoad: 1} }

// Metrics evaluates one mapping.
type Metrics struct {
	ECUs    int
	Harness float64
	MaxLoad float64
	LoadVar float64
	// Survivability is the fraction of (fault event × replica group)
	// pairs the deployment survives with a valid fail-over: a standby
	// outside the event's loss set whose host stays within capacity after
	// absorbing the failed-over load. The event universe comes from
	// Constraints.Faults (zero value: every single used-ECU failure).
	// 1.0 for systems where nothing is scored.
	Survivability float64
	Feasible      bool
	Violations    []string
}

// Cost folds metrics into a scalar (infeasible mappings are +Inf).
func (m Metrics) Cost(obj Objective) float64 {
	if !m.Feasible {
		return math.Inf(1)
	}
	return obj.WECU*float64(m.ECUs) + obj.WHarness*m.Harness + obj.WLoad*m.LoadVar +
		obj.WAvail*(1-m.Survivability)
}

// Evaluator scores candidate mappings under its constraints and counts
// the moves the searches driven through it score and accept. Safe for
// concurrent use.
type Evaluator struct {
	Cons Constraints

	// analyze, when set, replaces sched.Schedulable in schedulable.
	analyze func([]sched.Task) (bool, error)

	// Search counters, shared by every search driven through this
	// evaluator (including all chains of AnnealParallel): candidate moves
	// scored and moves actually applied. Atomic; read via SearchCounts or
	// a registry attached with Observe.
	movesEvaluated atomic.Uint64
	movesAccepted  atomic.Uint64
}

// SearchCounts reports how many candidate moves the searches driven
// through this evaluator scored and accepted.
func (ev *Evaluator) SearchCounts() (evaluated, accepted uint64) {
	return ev.movesEvaluated.Load(), ev.movesAccepted.Load()
}

// Observe registers the evaluator's DSE counters into a registry:
//
//	dse_moves_evaluated_total  candidate moves scored
//	dse_moves_accepted_total   moves applied to the working mapping
func (ev *Evaluator) Observe(reg *obs.Registry) {
	reg.CounterFunc("dse_moves_evaluated_total", "Candidate component moves scored by the deployment search.", ev.movesEvaluated.Load)
	reg.CounterFunc("dse_moves_accepted_total", "Component moves accepted into the working mapping.", ev.movesAccepted.Load)
}

// schedulable is the response-time verdict on one ECU's task set, the
// one analysis the scorer runs under RequireSchedulable.
func (ev *Evaluator) schedulable(tasks []sched.Task) (bool, error) {
	if ev.analyze != nil {
		return ev.analyze(tasks)
	}
	ok, _, err := sched.Schedulable(tasks)
	return ok, err
}

// NewEvaluator returns an evaluator of the given constraints.
func NewEvaluator(cons Constraints) *Evaluator {
	return &Evaluator{Cons: cons}
}

// Evaluate computes the metrics of the system's current mapping with a
// fresh evaluator.
func Evaluate(sys *model.System, cons Constraints) Metrics {
	return (&Evaluator{Cons: cons}).Evaluate(sys)
}

// Evaluate computes the metrics of the system's current mapping: Bind,
// Prepare, then the prepared incumbent's Evaluate. A topology Bind
// rejects, or a mapping Prepare rejects (a component left unmapped),
// scores infeasible with that error as its one violation.
func (ev *Evaluator) Evaluate(sys *model.System) Metrics {
	b, err := ev.Bind(sys)
	if err != nil {
		return Metrics{Violations: []string{err.Error()}}
	}
	prep, err := b.Prepare(sys.Mapping)
	if err != nil {
		return Metrics{Violations: []string{err.Error()}}
	}
	return prep.Evaluate()
}

// Greedy consolidates with first-fit decreasing: components sorted by
// descending utilization are packed onto the fewest ECUs that satisfy the
// constraints. ECUs are tried in name order (deterministic). The input is
// not modified; the returned clone carries the new mapping.
func Greedy(sys *model.System, cons Constraints) (*model.System, error) {
	return fitSystem(sys, cons, false)
}

// Place maps only the unmapped components of a system into the existing
// deployment without moving anything already placed — incremental
// integration of new supplier content into a vehicle already in
// production (the tooling face of E9's extensibility scenario). Existing
// mappings are never touched; an error is returned when a new component
// fits nowhere.
func Place(sys *model.System, cons Constraints) (*model.System, error) {
	return fitSystem(sys, cons, true)
}

// fitSystem binds sys under cons and runs Bound.firstFit on it.
func fitSystem(sys *model.System, cons Constraints, keep bool) (*model.System, error) {
	b, err := (&Evaluator{Cons: cons}).Bind(sys)
	if err != nil {
		return nil, fmt.Errorf("deploy: invalid topology: %w", err)
	}
	prep, err := b.firstFit(sys, keep)
	if err != nil {
		return nil, err
	}
	return withMapping(sys, prep.Mapping()), nil
}

// firstFit is the packer behind Greedy (keep unset: every component
// pending) and Place (keep set: the components sys maps stay put, the
// rest are pending). It maps each pending component onto the first ECU
// in name order that still passes the per-ECU checks with it added,
// taking them by descending SWC.Utilization, names breaking ties, and
// prepares the result if the full evaluation — bus reachability, RTA,
// fail-over — finds it feasible.
func (b *Bound) firstFit(sys *model.System, keep bool) (*Prepared, error) {
	if b.consErr != nil {
		return nil, b.consErr
	}
	cur := make([]int, len(b.comps))
	var pending []int
	for ci := range cur {
		// Bind validated every mapped ECU name.
		if ecu, ok := sys.Mapping[b.comps[ci].name]; keep && ok {
			cur[ci] = b.ecuIdx[ecu]
			continue
		}
		cur[ci] = -1
		pending = append(pending, ci)
	}
	util := make([]float64, len(cur))
	for _, ci := range pending {
		util[ci] = sys.Components[ci].Utilization()
	}
	sort.SliceStable(pending, func(i, j int) bool {
		ui, uj := util[pending[i]], util[pending[j]]
		if ui != uj {
			return ui > uj
		}
		return b.comps[pending[i]].name < b.comps[pending[j]].name
	})
	for _, ci := range pending {
		for _, ei := range b.ecuByName {
			if b.admits(cur, ci, ei) {
				cur[ci] = ei
				break
			}
		}
		if cur[ci] < 0 {
			return nil, fmt.Errorf("deploy: cannot place %s (u=%.3f) on any ECU", b.comps[ci].name, util[ci])
		}
	}
	prep := b.prepare(cur)
	if m := prep.Evaluate(); !m.Feasible {
		return nil, fmt.Errorf("deploy: first-fit result infeasible: %v", m.Violations)
	}
	return prep, nil
}

// admits reports whether ECU index ei passes the per-ECU checks with comp
// index ci added to what cur maps there. The load is summed in
// declaration order, as the scorer sums it.
func (b *Bound) admits(cur []int, ci, ei int) bool {
	a, _ := b.computeECU(cur, ei, -1, ci, false)
	e, cons := &b.ecus[ei], &b.cons
	if a.load > cons.MaxUtilization ||
		cons.RespectMemory && e.memoryKB > 0 && a.memory > e.memoryKB ||
		cons.RespectASIL && a.worst > e.maxASIL ||
		asilSpreadViolation(e.name, a.worst, a.best, cons.MaxASILSpread) != "" {
		return false
	}
	// Replica anti-affinity: never pack two instances of one group onto
	// the same ECU — they would fail together. A system without replica
	// groups has no groupOf; a singleton group has no peer to collide with.
	if groupOf := b.red.groupOf; groupOf != nil && groupOf[ci] >= 0 {
		for oi, oe := range cur {
			if oe == ei && groupOf[oi] == groupOf[ci] {
				return false
			}
		}
	}
	return true
}

// Anneal refines a feasible mapping by simulated annealing: random
// single-component moves, accepting cost increases with a geometrically
// cooling probability. Deterministic for a given seed.
func Anneal(sys *model.System, cons Constraints, obj Objective, seed uint64, iters int) (*model.System, error) {
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	out, _, err := anneal(&Evaluator{Cons: cons}, sys, obj, seed, iters)
	return out, err
}

// prepare binds ev to sys and prepares the search incumbent: the incoming
// mapping when Prepare accepts it and it is feasible, else Greedy's.
func (ev *Evaluator) prepare(sys *model.System) (*Prepared, error) {
	bound, err := ev.Bind(sys)
	if err != nil {
		return nil, fmt.Errorf("deploy: invalid topology: %w", err)
	}
	if prep, err := bound.Prepare(sys.Mapping); err == nil && prep.Evaluate().Feasible {
		return prep, nil
	}
	return bound.firstFit(sys, false)
}

// withMapping materializes a search result: a clone of sys carrying the
// given mapping.
func withMapping(sys *model.System, mapping map[string]string) *model.System {
	out := sys.Clone()
	out.Mapping = mapping
	return out
}

// anneal is the evaluator-parameterized chain shared by Anneal and
// AnnealParallel (the latter passes one evaluator shared across chains,
// so its move counters sum over them). The chain scores every candidate
// move cost first through the delta evaluator and carries the incumbent
// and the best mapping as component -> ECU indices; the result system is
// materialized once, at the end, together with its cost.
func anneal(ev *Evaluator, sys *model.System, obj Objective, seed uint64, iters int) (*model.System, float64, error) {
	prep, err := ev.prepare(sys)
	if err != nil {
		return nil, 0, err
	}
	nComps, nECUs := len(prep.b.comps), len(prep.b.ecus)
	bestCost := prep.Evaluate().Cost(obj)
	curCost := bestCost
	best := append([]int(nil), prep.curIdx...)
	r := sim.NewRand(seed)
	temp := bestCost * 0.05
	if temp <= 0 {
		temp = 1
	}
	for i := 0; i < iters && nComps > 0 && nECUs > 0; i++ {
		ci, ei := r.Intn(nComps), r.Intn(nECUs)
		if prep.curIdx[ci] == ei {
			continue
		}
		cost := prep.moveCost(ci, ei, obj)
		ev.movesEvaluated.Add(1)
		accept := cost <= curCost
		if !accept && !math.IsInf(cost, 1) {
			accept = r.Float64() < math.Exp((curCost-cost)/temp)
		}
		if accept {
			ev.movesAccepted.Add(1)
			prep.apply(ci, ei)
			curCost = cost
			if cost < bestCost {
				copy(best, prep.curIdx)
				bestCost = cost
			}
		}
		temp *= 0.995
	}
	if math.IsInf(bestCost, 1) {
		return nil, 0, fmt.Errorf("deploy: annealing found no feasible mapping")
	}
	return withMapping(sys, prep.b.mapping(best)), bestCost, nil
}

// AnnealParallel runs `restarts` independent annealing chains (seeds
// derived deterministically from seed) through par.ForEach and returns
// the best mapping found. The chains are the unit of parallelism: each
// prepares its own delta evaluator and scores its moves on its own
// goroutine. par.ForEach runs batches below its fan-out threshold (four
// jobs) inline, so up to three chains run one after another on the
// caller's goroutine; only larger restart counts use the worker pool.
// All chains share one evaluator and so one pair of move counters. The
// result is deterministic: chains are seeded by index and compared by
// (cost, chain index), independent of scheduling.
func AnnealParallel(sys *model.System, cons Constraints, obj Objective,
	seed uint64, iters, restarts, workers int) (*model.System, error) {
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if restarts < 1 {
		restarts = 1
	}
	ev := NewEvaluator(cons)
	results := make([]*model.System, restarts)
	costs := make([]float64, restarts)
	errs := make([]error, restarts)
	par.ForEach(workers, restarts, func(i int) {
		// Chain errors are values here: one failed chain must not cancel
		// its siblings, and the merge below stays deterministic.
		chainSeed := seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		results[i], costs[i], errs[i] = anneal(ev, sys, obj, chainSeed, iters)
	})
	best := -1
	for i := range results {
		if results[i] == nil {
			continue
		}
		if best == -1 || costs[i] < costs[best] {
			best = i
		}
	}
	if best == -1 {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("deploy: no annealing chain produced a mapping")
	}
	return results[best], nil
}

// Descend refines a feasible mapping by steepest descent: every
// iteration scores all single-component moves against the incumbent's
// delta evaluator, cost first, and applies the strictly best improving
// one (whose dirty ECUs pass response-time analysis under
// RequireSchedulable); it stops at a local optimum or after maxIters
// rounds. Deterministic: candidates are enumerated in sorted (component,
// ECU) order and ties break to the lowest index. An infeasible input is
// bootstrapped through Greedy. workers is ignored: a move scores in about
// a microsecond, too little to hand to another goroutine, so every round
// runs on the caller.
func Descend(sys *model.System, cons Constraints, obj Objective, workers, maxIters int) (*model.System, error) {
	return DescendWith(NewEvaluator(cons), sys, obj, workers, maxIters)
}

// DescendWith is Descend under a caller-supplied evaluator, whose move
// counters, and any registry attached to it with Observe, see the
// search. workers is ignored, as in Descend.
func DescendWith(ev *Evaluator, sys *model.System, obj Objective, workers, maxIters int) (*model.System, error) {
	out, _, err := descend(ev, sys, obj, maxIters)
	return out, err
}

// descend is DescendWith that also returns the result's metrics.
// Invalid constraints surface through prepare's Greedy bootstrap.
func descend(ev *Evaluator, sys *model.System, obj Objective, maxIters int) (*model.System, Metrics, error) {
	prep, err := ev.prepare(sys)
	if err != nil {
		return nil, Metrics{}, err
	}
	mapping, m, err := descendFrom(ev, prep, obj, maxIters)
	if err != nil {
		return nil, Metrics{}, err
	}
	return withMapping(sys, mapping), m, nil
}

// descendFrom runs the descent from a prepared incumbent and returns the
// local optimum's mapping and metrics.
func descendFrom(ev *Evaluator, prep *Prepared, obj Objective, maxIters int) (map[string]string, Metrics, error) {
	b := prep.b
	curCost := prep.Evaluate().Cost(obj)
	compOrder := byName(len(b.comps), func(i int) string { return b.comps[i].name })
	type move struct{ ci, ei int }
	var moves []move
	var costs []float64
	var improving []int
	for iter := 0; iter < maxIters; iter++ {
		moves = moves[:0]
		for _, ci := range compOrder {
			for _, ei := range b.ecuByName {
				if prep.curIdx[ci] != ei {
					moves = append(moves, move{ci, ei})
				}
			}
		}
		// Cost-only, without the dirty ECUs' RTA verdicts.
		costs = costs[:0]
		for _, mv := range moves {
			costs = append(costs, prep.scoreMove(mv.ci, mv.ei, false).Cost(obj))
		}
		ev.movesEvaluated.Add(uint64(len(moves)))
		// The winner is the lowest (cost, index) improving move whose dirty
		// ECUs pass RTA — the move full scoring picks, because a verdict
		// can only raise a cost to +Inf.
		improving = improving[:0]
		for i := range moves {
			if costs[i] < curCost {
				improving = append(improving, i)
			}
		}
		slices.SortFunc(improving, func(i, j int) int {
			return cmp.Or(cmp.Compare(costs[i], costs[j]), cmp.Compare(i, j))
		})
		best := -1
		for _, i := range improving {
			if prep.schedulable(moves[i].ci, moves[i].ei) {
				best = i
				break
			}
		}
		if best == -1 {
			break // local optimum
		}
		ev.movesAccepted.Add(1)
		prep.apply(moves[best].ci, moves[best].ei)
		curCost = costs[best]
	}
	m := prep.Evaluate()
	if !m.Feasible {
		return nil, Metrics{}, fmt.Errorf("deploy: descent result infeasible: %v", m.Violations)
	}
	return prep.Mapping(), m, nil
}
