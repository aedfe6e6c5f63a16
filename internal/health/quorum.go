package health

// Replicated detection: E13 showed the single staleness observer is the
// availability ceiling — kill its ECU and nothing ever reports the fault
// that should start the escalation ladder. A Quorum turns the observer
// into a replica group with majority agreement: each observer instance
// votes its verdict on a supervised subject, and only when a majority of
// the LIVE observers (instances on killed ECUs abstain structurally)
// agree on a fault within the agreement window does the quorum report
// the error that feeds the ladder. A single false accuser cannot trip
// recovery; a single dead observer cannot blind it.

import (
	"fmt"
	"sort"

	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// Verdict is one observer's judgement of a supervised subject.
type Verdict uint8

const (
	// VerdictOK: the subject's outputs look healthy.
	VerdictOK Verdict = iota
	// VerdictSuspect: inconclusive — the observer abstains this round
	// (its inputs may themselves be stale or unqualified).
	VerdictSuspect
	// VerdictFault: the subject is failing and recovery should start.
	VerdictFault
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictSuspect:
		return "suspect"
	case VerdictFault:
		return "fault"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// quorumWindow is how long a fault vote stays current. Votes older than
// the window no longer count toward agreement — observers re-accuse
// every supervision period, so an uncorroborated accusation ages out.
const quorumWindow = 25 * sim.Millisecond

// Quorum is the majority-agreement gate between a replicated observer
// group and the platform error manager.
type Quorum struct {
	p        *rte.Platform
	subject  string
	obsNames []string
	// lastFault holds each observer's most recent fault vote time;
	// zero-value absence means it never voted fault.
	lastFault map[string]sim.Time
	votes     map[Verdict]*obs.Counter
	agreed    *obs.Counter
	unknown   *obs.Counter
}

// NewQuorum builds the agreement gate for one supervised subject.
// observers are the instances of the observer replica group (pass
// p.ReplicaGroup of the observer primary); a single-observer quorum
// degenerates to direct reporting, so callers can wire replicated and
// unreplicated detection symmetrically. On agreement the quorum reports
// rte.ErrSensor, the staleness class the E13/E14 watchdogs detect.
func NewQuorum(p *rte.Platform, subject string, observers []string) (*Quorum, error) {
	if p.Sys.Component(subject) == nil {
		return nil, fmt.Errorf("health: quorum subject %s is not a component", subject)
	}
	if len(observers) == 0 {
		return nil, fmt.Errorf("health: quorum for %s needs at least one observer", subject)
	}
	seen := map[string]bool{}
	for _, o := range observers {
		if p.Sys.Component(o) == nil {
			return nil, fmt.Errorf("health: quorum observer %s is not a component", o)
		}
		if seen[o] {
			return nil, fmt.Errorf("health: quorum observer %s listed twice", o)
		}
		seen[o] = true
	}
	q := &Quorum{
		p: p, subject: subject,
		obsNames:  append([]string(nil), observers...),
		lastFault: map[string]sim.Time{},
		votes:     map[Verdict]*obs.Counter{},
		agreed: p.Metrics.Counter("health_quorum_agreements_total",
			"Majority fault agreements reached by replicated observers, by subject.",
			obs.Label{Key: "subject", Value: subject}),
		unknown: p.Metrics.Counter("health_quorum_unknown_votes_total",
			"Votes dropped because the voter is not a registered observer."),
	}
	for _, v := range []Verdict{VerdictOK, VerdictSuspect, VerdictFault} {
		q.votes[v] = p.Metrics.Counter("health_quorum_votes_total",
			"Observer votes cast, by verdict.",
			obs.Label{Key: "verdict", Value: v.String()})
	}
	return q, nil
}

// Vote records one observer's verdict and re-evaluates agreement. Votes
// from unregistered observers are dropped (and metered) — a promoted or
// foreign instance cannot stuff the ballot. Suspect votes abstain;
// an OK vote withdraws the observer's standing accusation.
func (q *Quorum) Vote(observer string, v Verdict, info string) {
	reg := false
	for _, o := range q.obsNames {
		if o == observer {
			reg = true
			break
		}
	}
	if !reg {
		q.unknown.Inc()
		return
	}
	switch v {
	case VerdictFault:
		q.votes[v].Inc()
		q.lastFault[observer] = q.p.K.Now()
	case VerdictOK:
		q.votes[v].Inc()
		delete(q.lastFault, observer)
	case VerdictSuspect:
		// Abstain: neither accuse nor withdraw.
		q.votes[v].Inc()
		return
	default:
		q.unknown.Inc()
		return
	}
	q.evaluate(info)
}

// evaluate reports the subject's error when a strict majority of the
// live observers hold a current fault vote. Observers on dead ECUs are
// excluded from the electorate — a killed observer must not raise the
// majority bar for the survivors.
func (q *Quorum) evaluate(info string) {
	now := q.p.K.Now()
	live, faults := 0, 0
	for _, o := range q.obsNames {
		if q.p.ECUDead(q.p.Sys.Mapping[o]) {
			continue
		}
		live++
		if at, ok := q.lastFault[o]; ok && now-at <= quorumWindow {
			faults++
		}
	}
	if live == 0 || 2*faults <= live {
		return
	}
	// Agreement: clear the standing accusations so the next report needs
	// a fresh majority, then feed the ladder.
	for o := range q.lastFault {
		delete(q.lastFault, o)
	}
	q.agreed.Inc()
	q.p.DLT.Emitf(int64(now), obs.LevelWarn, "HLTH", "QRUM",
		"quorum on %s: %d/%d observers agree: %s", q.subject, faults, live, info)
	q.p.Errors.Report(q.subject, rte.ErrSensor, info)
}

// Tally reports the current electorate for tests and diagnostics: live
// observers and how many hold a current fault vote.
func (q *Quorum) Tally() (live, faults int) {
	now := q.p.K.Now()
	for _, o := range q.obsNames {
		if q.p.ECUDead(q.p.Sys.Mapping[o]) {
			continue
		}
		live++
		if at, ok := q.lastFault[o]; ok && now-at <= quorumWindow {
			faults++
		}
	}
	return live, faults
}

// Observers returns the registered observer instances, sorted.
func (q *Quorum) Observers() []string {
	out := append([]string(nil), q.obsNames...)
	sort.Strings(out)
	return out
}
