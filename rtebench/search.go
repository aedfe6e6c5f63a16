package main

import (
	"fmt"
	"strings"
	"time"

	"autorte/internal/deploy"
	"autorte/internal/model"
)

// The search workload models the paper's §4 federated → integrated
// consolidation as a design-space exploration: Greedy packs the federated
// vehicle, Descend refines the packing and AnnealParallel escapes its
// local optimum, all under RequireSchedulable. deploy does almost all the
// work, so a deploy change shows here and nowhere in verify or simulate.
const (
	searchScale   = 1
	searchPool    = 128
	descendIters  = 16
	annealIters   = 300
	annealRestart = nproc
	// searchChecks is how many vehicles finish re-runs at one worker.
	searchChecks = 3
)

var (
	searchCons = deploy.Constraints{RequireSchedulable: true}
	searchObj  = deploy.DefaultObjective()
)

type searchInst struct {
	e    *env
	seed uint64
	pool []*model.System
	// seen is each vehicle's result digest at its first search; every
	// later search of the vehicle must repeat it.
	seen []string
}

func setupSearch(seed uint64, e *env) (instance, error) {
	pool, err := e.vehiclePool(seed, "search", []int{searchScale}, searchPool)
	return &searchInst{e: e, seed: seed, pool: pool, seen: make([]string, len(pool))}, err
}

// search runs the three searches on vehicle j with the given fan-out and
// returns the time spent in them and the result's digest.
func (s *searchInst) search(j, workers int) (time.Duration, string, error) {
	var g, d, a *model.System
	ev := deploy.NewEvaluator(searchCons)
	pr := s.e.probe(ev.Observe)
	t1, err := s.e.call("deploy.Greedy", func() (err error) {
		g, err = deploy.Greedy(s.pool[j], searchCons)
		return err
	})
	if err != nil {
		return t1, "", err
	}
	// DescendWith under a fresh NewEvaluator is exactly Descend; the
	// evaluator is kept so the traced run can read its move counters.
	t2, err := s.e.call("deploy.Descend", func() (err error) {
		d, err = deploy.DescendWith(ev, g, searchObj, workers, descendIters)
		return err
	})
	if err != nil {
		return t1 + t2, "", err
	}
	t3, err := s.e.call("deploy.AnnealParallel", func() (err error) {
		a, err = deploy.AnnealParallel(d, searchCons, searchObj, inputSeed(s.seed, "anneal", j), annealIters, annealRestart, workers)
		return err
	})
	pr.done()
	if err != nil {
		return t1 + t2 + t3, "", err
	}
	dig, err := scoredDigest(a, searchCons, searchObj)
	return t1 + t2 + t3, dig, err
}

// scoredDigest re-scores a search result on the full (unbound) evaluator
// and on the delta evaluator the searches use; both must agree and find
// it feasible. The digest covers the mapping and the score.
func scoredDigest(sys *model.System, cons deploy.Constraints, obj deploy.Objective) (string, error) {
	full := deploy.Evaluate(sys, cons)
	bound, err := deploy.NewEvaluator(cons).Bind(sys)
	if err != nil {
		return "", fmt.Errorf("binding the result: %w", err)
	}
	prep, err := bound.Prepare(sys.Mapping)
	if err != nil {
		return "", fmt.Errorf("preparing the result: %w", err)
	}
	if !full.Feasible {
		return "", fmt.Errorf("result infeasible: %v", full.Violations)
	}
	if c, p := full.Cost(obj), prep.Evaluate().Cost(obj); c != p {
		return "", fmt.Errorf("re-scored cost %v differs from the delta evaluator's %v", c, p)
	}
	return newDigester().mapping(sys.Mapping).metrics(full).float(full.Cost(obj)).sum(), nil
}

func (s *searchInst) op(i int) (time.Duration, error) {
	j := i % len(s.pool)
	d, dig, err := s.search(j, workers())
	if err != nil {
		return d, fmt.Errorf("vehicle %d: %w", j, err)
	}
	return d, repeatCheck(s.seen, j, dig)
}

// finish repeats the first searches at one worker: mapping and cost must
// not depend on the fan-out.
func (s *searchInst) finish() error {
	return recheck(s.seen, searchChecks, "at one worker", func(j int) (string, error) {
		_, dig, err := s.search(j, 1)
		return dig, err
	})
}

// The place workload is the fail-operational deployment calculation:
// PlaceReplicas chooses the replica counts, modes and hosts of a fixed
// candidate set, the first two chassis controllers, under a k-of-n
// ECU-loss model priced by WAvail, as E14's automatic placement does.
// The pool is as large as the operations a run completes, so nearly
// every operation places a different vehicle.
const (
	placeScale      = 1
	placePool       = 64
	placeCandidates = 2
	placeDescend    = 4
	placeChecks     = 2
)

var (
	placeCons = deploy.Constraints{Faults: deploy.FaultModel{Soft: true, IncludeSingletons: true}}
	placeObj  = deploy.Objective{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 100_000}
)

type placeInst struct {
	e    *env
	pool []*model.System
	seen []string
}

func setupPlace(seed uint64, e *env) (instance, error) {
	pool, err := e.vehiclePool(seed, "place", []int{placeScale}, placePool)
	return &placeInst{e: e, pool: pool, seen: make([]string, len(pool))}, err
}

// candidates are the vehicle's first chassis controllers.
func placeCandidatesOf(sys *model.System) []string {
	var out []string
	for _, c := range sys.Components {
		if c.DAS == "chassis" && strings.HasSuffix(c.Name, "_ctrl") && len(out) < placeCandidates {
			out = append(out, c.Name)
		}
	}
	return out
}

func (p *placeInst) place(j, workers int) (time.Duration, string, error) {
	sys := p.pool[j]
	var pl *deploy.Placement
	pr := p.e.probe()
	d, err := p.e.call("deploy.PlaceReplicas", func() (err error) {
		pl, err = deploy.PlaceReplicas(sys, placeCons, placeObj, deploy.PlacementOptions{
			Candidates: placeCandidatesOf(sys), Workers: workers, DescendIters: placeDescend,
		})
		return err
	})
	pr.done()
	if err != nil {
		return d, "", err
	}
	p.e.add("deploy.place_configs", float64(pl.Evaluated))
	if c, want := deploy.Evaluate(pl.System, placeCons).Cost(placeObj), pl.Metrics.Cost(placeObj); c != want {
		return d, "", fmt.Errorf("re-scored cost %v differs from the placement's %v", c, want)
	}
	return d, placementDigest(pl), nil
}

func (p *placeInst) op(i int) (time.Duration, error) {
	j := i % len(p.pool)
	d, dig, err := p.place(j, workers())
	if err != nil {
		return d, fmt.Errorf("vehicle %d: %w", j, err)
	}
	return d, repeatCheck(p.seen, j, dig)
}

func (p *placeInst) finish() error {
	return recheck(p.seen, placeChecks, "at one worker", func(j int) (string, error) {
		_, dig, err := p.place(j, 1)
		return dig, err
	})
}
