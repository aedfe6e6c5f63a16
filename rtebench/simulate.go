package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// The simulate workload is the full autosim run: rte.Build of a generated
// vehicle with E2E protection and the always-on flight recorder, then
// Platform.Run over the virtual horizon in slices. sim, osek, can, com,
// rte, e2eprot and obs do all the work; no analysis or search runs.
//
// The vehicle is scale 2 on CAN, the largest whose host cost per virtual
// second stays steady over the horizon. At scale 4 it does not (254, 456,
// 671 ms per virtual second over three seconds): the CAN backlog grows
// and can.(*Bus).arbitrate re-sorts every pending frame for each frame it
// sends, which at scale 8 takes about 75% of the CPU. That saturated-bus
// case needs a workload of its own.
const (
	simScale = 2
	simPool  = 64
	// One operation runs simSlice of virtual time; an episode runs
	// simSlices of them on one platform, then the next pool vehicle is
	// built. The trace recorder keeps every record, so episodes stay short
	// enough that memory does not grow with the run's length. A quarter
	// second per operation averages over the garbage collections and host
	// stalls that made 100 ms slices' tail wander from run to run.
	simSlice  = 250 * sim.Millisecond
	simSlices = 8
	// simSteady is the steadiness guard: the second half of the episodes
	// may cost at most this much more host time per virtual second than
	// the first half.
	simSteady = 1.10
	simChecks = 2
)

type simInst struct {
	e    *env
	pool []*model.System
	seen []string

	plat      *rte.Platform
	flightOff bool
	episode   int
	slice     int

	// Slice host times of recorder-on episodes by half of the horizon,
	// for the steadiness guard; traced holds the traced phase's.
	halves [2][]float64
	traced [2][]float64
}

func setupSimulate(seed uint64, e *env) (instance, error) {
	pool, err := e.vehiclePool(seed, "simulate", []int{simScale}, simPool)
	if err != nil {
		return nil, err
	}
	s := &simInst{e: e, pool: pool, seen: make([]string, len(pool))}
	return s, s.build()
}

func simOptions(flightOff bool) rte.Options {
	return rte.Options{E2E: &rte.E2EOptions{}, DisableFlight: flightOff}
}

// build starts the next episode on a fresh platform. The traced phase
// alternates the flight recorder off and on to measure its cost.
func (s *simInst) build() error {
	s.flightOff = s.e.layers != nil && s.episode%2 == 1
	sys := s.pool[s.episode%len(s.pool)]
	_, err := s.e.call("rte.Build", func() (err error) {
		s.plat, err = rte.Build(sys.Clone(), simOptions(s.flightOff))
		return err
	})
	s.slice = 0
	return err
}

func (s *simInst) op(i int) (time.Duration, error) {
	if i == 0 && s.slice > 0 {
		// The traced half starts over from the first vehicle.
		s.plat, s.episode = nil, 0
	}
	if s.plat == nil {
		// Each episode starts from a collected heap, so that one episode's
		// garbage is not billed to the next one's slices.
		runtime.GC()
		if err := s.build(); err != nil {
			return 0, err
		}
	}
	p := s.plat
	s.slice++
	horizon := sim.Time(s.slice) * simSlice
	pr := s.e.probe(p.K.Observe)
	var before map[string]float64
	var jobs, frames int
	if pr != nil {
		before = readSeries(p.Metrics)
		jobs, frames = finishes(p)
	}
	d, err := s.e.call("rte.Platform.Run", func() error {
		p.Run(horizon)
		return nil
	})
	if err != nil {
		return d, err
	}
	half := 0
	if s.slice > simSlices/2 {
		half = 1
	}
	ms := d.Seconds() * 1e3
	if pr != nil {
		pr.done()
		for k, v := range readSeries(p.Metrics) {
			if strings.HasPrefix(k, "e2e_checks_total") {
				s.e.add(k, v-before[k])
			}
		}
		j2, f2 := finishes(p)
		s.e.add("osek.jobs_finished", float64(j2-jobs))
		s.e.add("can.frames_delivered", float64(f2-frames))
		mode := "sim.flight_on"
		if s.flightOff {
			mode = "sim.flight_off"
			s.e.excluded = true
		} else {
			s.traced[half] = append(s.traced[half], ms)
		}
		s.e.add(mode+".host_ns", float64(d.Nanoseconds()))
		s.e.add(mode+".virtual_ns", float64(simSlice))
	}
	if !s.flightOff {
		s.halves[half] = append(s.halves[half], ms)
	}
	if s.slice == simSlices {
		j := s.episode % len(s.pool)
		dig := streamDigest(p)
		s.plat = nil
		s.episode++
		if err := repeatCheck(s.seen, j, dig); err != nil {
			return d, fmt.Errorf("%w (recorder off: %v)", err, s.flightOff)
		}
	}
	return d, nil
}

// finishes counts the finished jobs of OS tasks and the frames the CAN
// buses delivered so far.
func finishes(p *rte.Platform) (jobs, frames int) {
	total := p.Trace.Count(trace.Finish, "")
	for _, b := range p.Sys.Buses {
		if bus := p.CANBus(b.Name); bus != nil {
			for _, m := range bus.Messages() {
				frames += p.Trace.Count(trace.Finish, m.Name)
			}
		}
	}
	return total - frames, frames
}

// hostPerVirtualSecond is the median slice's host ms per virtual second.
func hostPerVirtualSecond(slices []float64) float64 {
	return median(slices) / (float64(simSlice) / float64(sim.Second))
}

// layerValues reports the traced phase's half-horizon costs.
func (s *simInst) layerValues() map[string]float64 {
	return map[string]float64{
		"sim.host_ms_per_virtual_s.first_half":  hostPerVirtualSecond(s.traced[0]),
		"sim.host_ms_per_virtual_s.second_half": hostPerVirtualSecond(s.traced[1]),
	}
}

// finish applies the steadiness guard, then replays the first vehicles
// with the recorder on and off: per-source statistics, bus loads and the
// event count must be identical, and equal to the timed runs.
func (s *simInst) finish() error {
	first, second := hostPerVirtualSecond(s.halves[0]), hostPerVirtualSecond(s.halves[1])
	if len(s.halves[1]) == 0 {
		return fmt.Errorf("no episode reached the second half of its horizon")
	}
	if second > simSteady*first {
		return fmt.Errorf("simulation not steady: %.2f ms per virtual second in the second half of the horizon against %.2f in the first", second, first)
	}
	return recheck(s.seen, simChecks, "replayed with the recorder on and off", func(j int) (string, error) {
		on, onStream, err := replay(s.pool[j], false)
		if err != nil {
			return "", err
		}
		off, offStream, err := replay(s.pool[j], true)
		if err != nil {
			return "", err
		}
		if on != off || onStream != offStream {
			return "", fmt.Errorf("outcome with the flight recorder off differs from recorder on")
		}
		return onStream, nil
	})
}

// replay simulates one episode of sys and returns its statistics digest
// and its stream digest.
func replay(sys *model.System, flightOff bool) (string, string, error) {
	p, err := rte.Build(sys.Clone(), simOptions(flightOff))
	if err != nil {
		return "", "", err
	}
	for k := 1; k <= simSlices; k++ {
		p.Run(sim.Time(k) * simSlice)
	}
	return platformDigest(p), streamDigest(p), nil
}
