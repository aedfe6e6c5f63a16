package fault

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"autorte/internal/par"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// This file is the fault-injection campaign runner: it sweeps a fault
// space (sensor failure modes x bus faults x WCET overruns x injection
// times), executes every scenario as an independent simulation in
// parallel, and reports detection latency, recovery latency and
// availability per scenario. Experiment E11 and `autosim -faults` drive
// it against the reference health-monitored system.

// FaultClass enumerates the injected fault classes of the campaign.
type FaultClass uint8

// The swept fault classes.
const (
	// FaultSensorSilent: the sensor stops producing.
	FaultSensorSilent FaultClass = iota
	// FaultSensorStuck: the sensor repeats its last published values.
	FaultSensorStuck
	// FaultSensorNoise: the sensor produces implausible values.
	FaultSensorNoise
	// FaultCANBurst: bus errors corrupt every frame in the window.
	FaultCANBurst
	// FaultOverrun: a runnable exceeds its execution budget.
	FaultOverrun
	// FaultCommCorrupt: received payloads carry flipped bits (comm.go).
	FaultCommCorrupt
	// FaultCommMasquerade: an internally valid frame of a foreign stream.
	FaultCommMasquerade
	// FaultCommDrop: frames are lost in transit.
	FaultCommDrop
	// FaultCommDuplicate: every frame is delivered twice.
	FaultCommDuplicate
	// FaultCommDelay: frames are held beyond the receiver's timeout bound.
	FaultCommDelay
	// FaultCommResequence: consecutive frames swap order.
	FaultCommResequence
	// FaultECUKill: an ECU dies permanently — every hosted task stops and
	// never resumes. The fail-operational deployment study (E13) scores
	// candidate deployments under this class: only a standby replica on a
	// surviving ECU can restore the service.
	FaultECUKill
)

var faultClassNames = [...]string{
	"sensor-silent", "sensor-stuck", "sensor-noise", "can-burst", "wcet-overrun",
	"comm-corrupt", "comm-masquerade", "comm-drop", "comm-duplicate",
	"comm-delay", "comm-resequence", "ecu-kill",
}

func (c FaultClass) String() string {
	if int(c) < len(faultClassNames) {
		return faultClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes returns every fault class in declaration order.
func Classes() []FaultClass {
	out := make([]FaultClass, len(faultClassNames))
	for i := range out {
		out[i] = FaultClass(i)
	}
	return out
}

// ParseClass resolves a fault-class name (as printed by String). Unknown
// names fail with an error that lists every valid class, so a mistyped
// `-faults` selection dies loudly instead of silently sweeping nothing.
func ParseClass(name string) (FaultClass, error) {
	for i, n := range faultClassNames {
		if n == name {
			return FaultClass(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault class %q (valid: %s)", name, strings.Join(faultClassNames[:], ", "))
}

// ParseClasses resolves a comma-separated class-name list; "all" selects
// every class. Empty input is an error — a campaign over no classes is a
// configuration mistake, not an empty result.
func ParseClasses(list string) ([]FaultClass, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("fault: empty fault-class list (use \"all\" or a comma-separated subset of: %s)", strings.Join(faultClassNames[:], ", "))
	}
	if strings.TrimSpace(list) == "all" {
		return Classes(), nil
	}
	var out []FaultClass
	for _, name := range strings.Split(list, ",") {
		c, err := ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Scenario is one cell of the fault space.
type Scenario struct {
	Name     string
	Class    FaultClass
	InjectAt sim.Time
	// Until ends transient faults; sim.Infinity means permanent.
	Until sim.Time
}

// Transient reports whether the fault ends before the horizon.
func (s Scenario) Transient() bool { return s.Until != sim.Infinity }

// Result is the measured outcome of one scenario.
type Result struct {
	Scenario Scenario
	// Detected and DetectionLatency: first matching error report at or
	// after injection.
	Detected         bool
	DetectionLatency sim.Duration
	// Recovered and RecoveryLatency: whether the observed service was up
	// at the horizon and how long after injection the last outage ended
	// (see ServiceRecovery).
	Recovered       bool
	RecoveryLatency sim.Duration
	// Availability is the fraction of expected service completions that
	// actually happened between injection and horizon.
	Availability float64
	// Escalations counts recovery attempts the health monitor performed.
	Escalations int64
	// FinalState summarizes the end state (degradation level or partition
	// health) as reported by the scenario runner.
	FinalState string
	// Errors is the total number of platform error reports.
	Errors int64
}

// Sweep builds the cross product of fault classes and injection times.
// window > 0 makes every fault transient ([inject, inject+window));
// window <= 0 makes them permanent.
func Sweep(classes []FaultClass, injectTimes []sim.Time, window sim.Duration) []Scenario {
	var out []Scenario
	for _, class := range classes {
		for _, at := range injectTimes {
			s := Scenario{Class: class, InjectAt: at, Until: sim.Infinity}
			kind := "permanent"
			if window > 0 {
				s.Until = at + sim.Time(window)
				kind = fmt.Sprintf("%v", window)
			}
			s.Name = fmt.Sprintf("%s@%v/%s", class, at, kind)
			out = append(out, s)
		}
	}
	return out
}

// RunCampaign executes every scenario through run on at most workers
// goroutines (<= 0 selects GOMAXPROCS). run returns the scenario's
// outcome: a Result, or whatever a study measures beside it (a sampled
// series, a fail-over count). Each scenario must build its own platform
// inside run — simulations share nothing — so outcomes are deterministic
// and slot-indexed: out[i] always belongs to scenarios[i], regardless of
// scheduling. An empty campaign is a configuration error, not an empty
// result: reports aggregating over it would divide by zero.
func RunCampaign[T any](workers int, scenarios []Scenario, run func(Scenario) T) ([]T, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("fault: empty campaign: no scenarios to run")
	}
	out := make([]T, len(scenarios))
	// The job function never errors: a scenario's outcome — including a
	// crashed or undetected fault — is data, not a campaign failure.
	par.ForEach(workers, len(scenarios), func(i int) {
		out[i] = run(scenarios[i])
	})
	return out, nil
}

// Availability returns the fraction of expected periodic completions of a
// source that actually finished in [from, to): 1.0 is full service,
// 0 is a dead service. More than expected (catch-up after a stall) clamps
// to 1. A non-positive period or a zero-length observation window is an
// explicit error — the quotient would otherwise be a silent 0 (or NaN in
// a hand-rolled variant) that reads like a dead service in reports.
func Availability(r *trace.Recorder, source string, period sim.Duration, from, to sim.Time) (float64, error) {
	return AvailabilityAny(r, []string{source}, period, from, to)
}

// AvailabilityAny is Availability over a replicated service: the union of
// the sources' finish streams (primary or promoted standby — whichever
// instance delivers, the function is up).
func AvailabilityAny(r *trace.Recorder, sources []string, period sim.Duration, from, to sim.Time) (float64, error) {
	if err := checkWindow(sources, period, from, to); err != nil {
		return 0, err
	}
	expected := int64(to-from) / int64(period)
	if expected == 0 {
		return 1, nil
	}
	n := int64(0)
	eachFinish(r, sources, func(at sim.Time) {
		if at >= from && at < to {
			n++
		}
	})
	av := float64(n) / float64(expected)
	if av > 1 {
		av = 1
	}
	return av, nil
}

// eachFinish calls fn with the time of every Finish record of the
// sources, scanning the trace in place.
func eachFinish(r *trace.Recorder, sources []string, fn func(at sim.Time)) {
	if r == nil {
		return
	}
	for i := range r.Records {
		if rec := &r.Records[i]; rec.Kind == trace.Finish && slices.Contains(sources, rec.Source) {
			fn(rec.At)
		}
	}
}

// ServiceRecovery examines a periodic source's finish stream after an
// injection. The service is down whenever consecutive finishes are more
// than 2*period apart. It returns the delay from injectAt to the finish
// that ended the last outage — 0 if the service never went down — and
// whether the service was up again at the horizon (false means it was
// still down, and the latency is meaningless). A non-positive period or a
// horizon at or before the injection is an explicit error.
func ServiceRecovery(r *trace.Recorder, source string, period sim.Duration, injectAt, horizon sim.Time) (sim.Duration, bool, error) {
	return ServiceRecoveryAny(r, []string{source}, period, injectAt, horizon)
}

// ServiceRecoveryAny is ServiceRecovery over a replicated service: the
// merged, time-ordered finish stream of all sources. A fail-over that
// moves delivery from the primary to a promoted standby counts as
// continued (or recovered) service.
func ServiceRecoveryAny(r *trace.Recorder, sources []string, period sim.Duration, injectAt, horizon sim.Time) (sim.Duration, bool, error) {
	if err := checkWindow(sources, period, injectAt, horizon); err != nil {
		return 0, false, err
	}
	var finishes []sim.Time
	eachFinish(r, sources, func(at sim.Time) {
		if at > injectAt {
			finishes = append(finishes, at)
		}
	})
	sort.Slice(finishes, func(i, j int) bool { return finishes[i] < finishes[j] })
	gap := sim.Time(2 * period)
	prev := injectAt
	lastOutageEnd := sim.Time(-1)
	for _, at := range finishes {
		if at-prev > gap {
			lastOutageEnd = at
		}
		prev = at
	}
	if horizon-prev > gap {
		return 0, false, nil
	}
	if lastOutageEnd < 0 {
		return 0, true, nil
	}
	return lastOutageEnd - injectAt, true, nil
}

// checkWindow rejects the degenerate scoring inputs every service metric
// shares: no observed sources, a rate-less service, an empty window.
func checkWindow(sources []string, period sim.Duration, from, to sim.Time) error {
	if len(sources) == 0 {
		return fmt.Errorf("fault: service scoring needs at least one source")
	}
	if period <= 0 {
		return fmt.Errorf("fault: non-positive service period %v", period)
	}
	if to <= from {
		return fmt.Errorf("fault: zero-length observation window [%v, %v)", from, to)
	}
	return nil
}
