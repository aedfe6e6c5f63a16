// Package e2e computes and measures end-to-end latencies of event chains
// (sensor → controller → actuator), the central extra-functional property
// §3's methodology verifies: an analytic bound composed from per-stage
// worst cases (holistic analysis with jitter propagation), and a
// measurement probe that stamps tokens through a running rte.Platform.
package e2e

import (
	"fmt"

	"autorte/internal/can"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// Stage is one hop of an event chain for the analytic bound. Bound takes
// the accumulated release jitter from upstream stages and returns this
// stage's worst-case contribution.
type Stage interface {
	StageName() string
	Bound(inputJitter sim.Duration) (sim.Duration, error)
}

// TaskStage is a computation hop: the target task analyzed by
// fixed-priority RTA among its ECU's task set, with upstream jitter.
type TaskStage struct {
	Name   string
	Tasks  []sched.Task
	Target string
	// Results optionally carries the pre-resolved analysis of Tasks; when
	// non-nil, Bound reads it instead of running sched.ResponseTimes.
	// Callers that bound many stages over the same task set resolve the
	// analysis once and share it here (read-only).
	Results []sched.Result
}

// StageName implements Stage.
func (s *TaskStage) StageName() string { return s.Name }

// Bound implements Stage.
//
// Fixed-priority RTA treats a task's own release jitter purely
// additively: the busy-period recurrence interferes via the OTHER tasks'
// jitters only, and R = w + J. Bumping the target's jitter therefore
// shifts its response by exactly the bump and changes nothing else — so
// instead of cloning the task set per chain stage (which would defeat
// the memoized analysis with a one-off key), Bound analyzes the shared,
// unmodified set — the same analysis the ECU schedulability verdict
// memoizes — and adds the upstream jitter to the target's response.
func (s *TaskStage) Bound(inputJitter sim.Duration) (sim.Duration, error) {
	found := 0
	for i := range s.Tasks {
		if s.Tasks[i].Name == s.Target {
			found++
		}
	}
	if found == 0 {
		return 0, fmt.Errorf("e2e: stage %s: target task %s not in set", s.Name, s.Target)
	}
	if found > 1 {
		// A duplicated name would both double-count the upstream jitter
		// and make the result pick whichever duplicate analyzes first.
		return 0, fmt.Errorf("e2e: stage %s: target task %s appears %d times in set", s.Name, s.Target, found)
	}
	rs := s.Results
	if rs == nil {
		var err error
		if rs, err = sched.ResponseTimes(s.Tasks); err != nil {
			return 0, err
		}
	}
	for _, r := range rs {
		if r.Task.Name == s.Target {
			if !r.Converged {
				return 0, fmt.Errorf("e2e: stage %s: response time diverges", s.Name)
			}
			return r.WCRT + inputJitter, nil
		}
	}
	return 0, fmt.Errorf("e2e: stage %s: target vanished", s.Name)
}

// CANStage is a communication hop over a CAN channel: the target message
// analyzed by bus RTA with upstream jitter.
type CANStage struct {
	Name     string
	Cfg      can.Config
	Messages []*can.Message
	Target   string
	// Responses optionally carries the pre-resolved analysis of Messages;
	// when non-nil, Bound reads it instead of running can.Analyze
	// (read-only).
	Responses []can.Response
}

// StageName implements Stage.
func (s *CANStage) StageName() string { return s.Name }

// Bound implements Stage.
//
// The CAN busy-period recurrence depends only on the interferers'
// jitters, never the target's own: the target's jitter enters the
// analysis purely additively (R = J + w + C) and in the deadline
// comparison. So instead of cloning the message set to bump the target's
// jitter — which would make every chain stage a distinct analysis — Bound
// analyzes the shared, unmodified set (one memoized analysis per bus,
// the same one the bus schedulability verdict uses) and folds the
// upstream jitter in afterwards, re-checking the deadline under the
// shifted response.
func (s *CANStage) Bound(inputJitter sim.Duration) (sim.Duration, error) {
	var target *can.Message
	found := 0
	for _, m := range s.Messages {
		if m.Name == s.Target {
			target = m
			found++
		}
	}
	if found == 0 {
		return 0, fmt.Errorf("e2e: stage %s: target message %s not in set", s.Name, s.Target)
	}
	if found > 1 {
		return 0, fmt.Errorf("e2e: stage %s: target message %s appears %d times in set", s.Name, s.Target, found)
	}
	rs := s.Responses
	if rs == nil {
		var err error
		if rs, err = can.Analyze(s.Cfg, s.Messages); err != nil {
			return 0, err
		}
	}
	for _, r := range rs {
		if r.Message.Name == s.Target {
			// Shift by the upstream jitter and re-apply the verdict's
			// deadline conditions. Schedulable already covers convergence,
			// level utilization, and the unshifted deadlines, all of which
			// only get harder under added jitter.
			bumped := r.WCRT + inputJitter
			d := target.Deadline
			if d <= 0 {
				d = target.Period
			}
			if !r.Schedulable || bumped > d || bumped > target.Period {
				return 0, fmt.Errorf("e2e: stage %s: message %s unschedulable", s.Name, s.Target)
			}
			return bumped, nil
		}
	}
	return 0, fmt.Errorf("e2e: stage %s: target vanished", s.Name)
}

// SamplingStage is a time-triggered hop that polls its input periodically
// (a TT slot, a periodic reader): worst case is one full period of waiting
// plus the transfer/execution time, independent of upstream jitter — this
// is how time-triggered designs cut jitter accumulation.
type SamplingStage struct {
	Name     string
	Period   sim.Duration
	Transfer sim.Duration
}

// StageName implements Stage.
func (s *SamplingStage) StageName() string { return s.Name }

// Bound implements Stage.
func (s *SamplingStage) Bound(sim.Duration) (sim.Duration, error) {
	if s.Period <= 0 {
		return 0, fmt.Errorf("e2e: sampling stage %s: non-positive period", s.Name)
	}
	return s.Period + s.Transfer, nil
}

// ChainBound composes per-stage worst cases into an end-to-end bound,
// propagating each stage's response as the next stage's release jitter
// (standard holistic composition for event-driven chains; sampling stages
// absorb jitter).
func ChainBound(stages []Stage) (sim.Duration, error) {
	var total, jitter sim.Duration
	for _, st := range stages {
		b, err := st.Bound(jitter)
		if err != nil {
			return 0, err
		}
		total += b
		if _, sampling := st.(*SamplingStage); sampling {
			jitter = 0
		} else {
			jitter = b
		}
	}
	return total, nil
}

// Probe measures chain latencies on a running platform by stamping a
// sequence token at the source runnable and recovering it at the sink.
// Attach owns the source and sink behaviours; intermediate runnables may
// keep their own behaviours as long as they propagate the first read
// value to their writes (the RTE default behaviour does).
type Probe struct {
	produceAt map[int64]sim.Time
	seq       int64
	// Latencies holds one first-through latency per token that reached
	// the sink (reaction-time semantics: how fast does new data arrive).
	Latencies []sim.Duration
	// Ages holds the input data age observed at every sink execution
	// (max-age semantics: how stale is the data the consumer acts on).
	// Unlike Latencies, Ages also samples executions that saw no fresh
	// token.
	Ages []sim.Duration
}

// Endpoint names a runnable and the port element it produces or consumes.
type Endpoint struct {
	SWC, Runnable, Port, Elem string
}

// Attach instruments source and sink on the platform and returns the
// probe. Call before Platform.Run.
func Attach(p *rte.Platform, source, sink Endpoint) (*Probe, error) {
	pr := &Probe{produceAt: map[int64]sim.Time{}}
	err := p.SetBehavior(source.SWC, source.Runnable, func(c *rte.Context) {
		pr.seq++
		tok := pr.seq % 60000 // fits a 16-bit element exactly
		pr.produceAt[tok] = c.Now()
		c.Write(source.Port, source.Elem, float64(tok))
	})
	if err != nil {
		return nil, err
	}
	err = p.SetBehavior(sink.SWC, sink.Runnable, func(c *rte.Context) {
		tok := int64(c.Read(sink.Port, sink.Elem))
		if t0, ok := pr.produceAt[tok]; ok {
			pr.Latencies = append(pr.Latencies, c.Now()-t0)
			delete(pr.produceAt, tok)
		}
		if age := c.Age(sink.Port, sink.Elem); age >= 0 {
			pr.Ages = append(pr.Ages, age)
		}
	})
	if err != nil {
		return nil, err
	}
	return pr, nil
}

// Max returns the worst measured first-through latency (0 when nothing
// arrived).
func (pr *Probe) Max() sim.Duration {
	var m sim.Duration
	for _, l := range pr.Latencies {
		if l > m {
			m = l
		}
	}
	return m
}

// MaxAge returns the worst observed input data age at the sink (0 when
// the sink never ran with data).
func (pr *Probe) MaxAge() sim.Duration {
	var m sim.Duration
	for _, a := range pr.Ages {
		if a > m {
			m = a
		}
	}
	return m
}
