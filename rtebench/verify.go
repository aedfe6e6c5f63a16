package main

import (
	"fmt"
	"time"

	"autorte/internal/core"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// The verify and reverify workloads model the paper's §3 integration
// check on a seeded stream of vehicles at the sizes of the repository's
// Verify benchmarks: scale 2, 4 and 8, i.e. 26, 52 and 104 constrained
// chains. One operation handles one vehicle of each size, back to back.
// Single-vehicle times mix three sizes whose costs overlap (a scale-4
// vehicle can cost more than a scale-8 one), so their median moves with
// the handful of vehicles a seed draws; the batch time does not.
var verifyScales = []int{2, 4, 8}

const (
	// verifyBatches and reverifyBatches are the vehicle batches a run
	// cycles through: enough that a run's median and tail do not hinge on
	// a few generated vehicles.
	verifyBatches   = 64
	reverifyBatches = 16
	// verifyChecks batches are re-verified on the sequential uncached
	// pipeline after the loop.
	verifyChecks = 8
)

// vehicleSpec is the generated vehicle at a scale: every subsystem's
// chain count multiplied, every chain carrying a latency constraint, and
// the backbone bit rate grown with the signal count up to classic CAN's
// 1 Mbit/s.
func vehicleSpec(scale int) workload.VehicleSpec {
	dases := workload.DefaultDASes()
	for i := range dases {
		dases[i].Chains *= scale
	}
	return workload.VehicleSpec{
		DASes:            dases,
		ChainConstraints: true,
		BusBitRate:       min(int64(500_000*scale), 1_000_000),
	}
}

// inputSeed derives the seed of input j of the named input stream from
// the run's seed (splitmix64 finalizer), so that streams and inputs are
// independent of each other and no derived seed is 0.
func inputSeed(seed uint64, stream string, j int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// vehiclePool generates perScale vehicles of every scale, interleaved by
// scale.
func (e *env) vehiclePool(seed uint64, stream string, scales []int, perScale int) ([]*model.System, error) {
	pool := make([]*model.System, 0, len(scales)*perScale)
	for j := 0; j < len(scales)*perScale; j++ {
		scale := scales[j%len(scales)]
		var sys *model.System
		_, err := e.call("workload.GenerateVehicle", func() (err error) {
			sys, err = workload.GenerateVehicle(vehicleSpec(scale), sim.NewRand(inputSeed(seed, stream, j)))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("vehicle %d (scale %d): %w", j, scale, err)
		}
		pool = append(pool, sys)
	}
	return pool, nil
}

// verifyInst runs one cold Verify per vehicle of a batch, each on a fresh
// parallel pipeline, cycling through the batches.
type verifyInst struct {
	e    *env
	pool []*model.System
	seen []string
}

func setupVerify(seed uint64, e *env) (instance, error) {
	pool, err := e.vehiclePool(seed, "verify", verifyScales, verifyBatches)
	return &verifyInst{e: e, pool: pool, seen: make([]string, len(pool))}, err
}

func (v *verifyInst) op(i int) (time.Duration, error) {
	var total time.Duration
	for k := range verifyScales {
		j := (i%verifyBatches)*len(verifyScales) + k
		p := core.NewPipeline(workers())
		pr := v.e.probe(p.Observe)
		var rep *core.Report
		d, err := v.e.call("core.Pipeline.Verify", func() (err error) {
			rep, err = p.Verify(v.pool[j], nil, rte.Options{})
			return err
		})
		pr.done()
		total += d
		if err != nil {
			return total, fmt.Errorf("vehicle %d: %w", j, err)
		}
		if err := repeatCheck(v.seen, j, reportDigest(rep)); err != nil {
			return total, err
		}
	}
	return total, nil
}

// finish re-verifies the first batches on the sequential, uncached
// pipeline: the parallel cached reports must equal those.
func (v *verifyInst) finish() error {
	return recheck(v.seen, verifyChecks*len(verifyScales), "on the sequential uncached pipeline", func(j int) (string, error) {
		rep, err := (&core.Pipeline{Workers: 1}).Verify(v.pool[j], nil, rte.Options{})
		if err != nil {
			return "", err
		}
		return reportDigest(rep), nil
	})
}

// reverifyInst applies a seeded stream of single-component moves to the
// incremental verifier of each vehicle of a batch, cycling through the
// batches. Each vehicle
// walks a fixed seeded path of reverifyWalk moves away from its federated
// mapping and back, over and over, the way a search revisits the
// neighbourhood of its incumbent. The path bounds the distinct mappings,
// so the analysis caches stop growing after the first pass and memory
// does not depend on how many operations a run completes.
type reverifyInst struct {
	e       *env
	pool    []*model.System
	pipes   []*core.Pipeline
	incs    []*core.Incremental
	walks   [][]map[string]string
	pos     []int
	samples []reverifySample
}

// reverifySample is one Reverify result kept for the full-verify check.
type reverifySample struct {
	j       int
	mapping map[string]string
	digest  string
}

const (
	// reverifySampleEvery is prime to the batch count, so the samples
	// rotate over every batch.
	reverifySampleEvery = 37
	reverifyMaxSamples  = 64
	reverifyWalk        = 16
)

func setupReverify(seed uint64, e *env) (instance, error) {
	pool, err := e.vehiclePool(seed, "reverify", verifyScales, reverifyBatches)
	if err != nil {
		return nil, err
	}
	r := &reverifyInst{e: e, pool: pool}
	for j, sys := range pool {
		p := core.NewPipeline(workers())
		var inc *core.Incremental
		_, err := e.call("core.NewIncremental", func() (err error) {
			inc, err = core.NewIncremental(p, sys.Clone(), nil, rte.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("incremental verifier of vehicle %d: %w", j, err)
		}
		r.pipes = append(r.pipes, p)
		r.incs = append(r.incs, inc)
		r.walks = append(r.walks, walk(sys, sim.NewRand(inputSeed(seed, "reverify-moves", j))))
	}
	r.pos = make([]int, len(pool))
	return r, nil
}

// walk is a path of reverifyWalk single-component moves from the
// vehicle's mapping: walk[0] is the mapping itself, each next one moves
// one component to another ECU.
func walk(sys *model.System, rng *sim.Rand) []map[string]string {
	out := []map[string]string{copyMapping(sys.Mapping)}
	for len(out) <= reverifyWalk {
		m := copyMapping(out[len(out)-1])
		c := sys.Components[rng.Intn(len(sys.Components))].Name
		ecu := sys.ECUs[rng.Intn(len(sys.ECUs))].Name
		if m[c] == ecu {
			continue
		}
		m[c] = ecu
		out = append(out, m)
	}
	return out
}

func (r *reverifyInst) op(i int) (time.Duration, error) {
	var total time.Duration
	for k := range verifyScales {
		j := (i%reverifyBatches)*len(verifyScales) + k
		// Out along the walk, then back to its start.
		step := r.pos[j] % (2 * reverifyWalk)
		next := step + 1
		if step >= reverifyWalk {
			next = 2*reverifyWalk - 1 - step
		}
		m := r.walks[j][next]
		inc := r.incs[j]
		pr := r.e.probe(inc.Observe, r.pipes[j].Observe)
		var rep *core.Report
		d, err := r.e.call("core.Incremental.Reverify", func() (err error) {
			rep, err = inc.Reverify(m)
			return err
		})
		pr.done()
		total += d
		if err != nil {
			return total, fmt.Errorf("vehicle %d: %w", j, err)
		}
		r.pos[j]++
		if i%reverifySampleEvery == 0 && len(r.samples) < reverifyMaxSamples {
			r.samples = append(r.samples, reverifySample{j: j, mapping: m, digest: reportDigest(rep)})
		}
	}
	return total, nil
}

// finish re-verifies every sampled mapping from scratch: the incremental
// report must equal the full one.
func (r *reverifyInst) finish() error {
	for _, s := range r.samples {
		sys := r.pool[s.j].Clone()
		sys.Mapping = copyMapping(s.mapping)
		rep, err := core.NewPipeline(workers()).Verify(sys, nil, rte.Options{})
		if err != nil {
			return fmt.Errorf("full verify of a sampled mapping of vehicle %d: %w", s.j, err)
		}
		if reportDigest(rep) != s.digest {
			return fmt.Errorf("vehicle %d: incremental report differs from a full verify of the same mapping", s.j)
		}
	}
	if len(r.samples) == 0 {
		return fmt.Errorf("no reverify result was sampled for the full-verify check")
	}
	return nil
}

func copyMapping(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
