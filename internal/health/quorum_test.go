package health

import (
	"testing"

	"autorte/internal/deploy"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// quorumSystem spreads a hot 3-instance observer group across three
// ECUs next to the supervised sensor — the E14 detection topology in
// miniature.
func quorumSystem(t *testing.T) *model.System {
	t.Helper()
	s := testSystem()
	s.Buses = []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500000}}
	s.ECUs[0].Buses = []string{"can0"}
	s.ECUs = append(s.ECUs,
		&model.ECU{Name: "e2", Speed: 1, Buses: []string{"can0"}},
		&model.ECU{Name: "e3", Speed: 1, Buses: []string{"can0"}})
	s.Components = append(s.Components, &model.SWC{
		Name:       "Watch",
		Redundancy: model.Redundancy{Replicas: 3, Mode: model.StandbyActive},
		Runnables: []model.Runnable{{
			Name: "check", WCETNominal: sim.US(10),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
		}},
	})
	out, err := deploy.Replicate(s)
	if err != nil {
		t.Fatal(err)
	}
	out.Mapping["Watch"] = "e1"
	out.Mapping["Watch#1"] = "e2"
	out.Mapping["Watch#2"] = "e3"
	return out
}

// reports counts the error-manager records blaming one source.
func reports(p *rte.Platform, source string) int {
	n := 0
	for _, r := range p.Errors.Records() {
		if r.Source == source {
			n++
		}
	}
	return n
}

// A lone accuser cannot trip recovery; the second accusation within the
// window forms the majority (2 of 3), reports the subject once, and the
// agreement clears every standing accusation so the next report needs a
// fresh majority.
func TestQuorumMajorityReportsOnce(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	q, err := NewQuorum(p, "Sensor", p.ReplicaGroup("Watch"))
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() { q.Vote("Watch", VerdictFault, "stale") })
	p.K.At(sim.MS(15), func() {
		if n := reports(p, "Sensor"); n != 0 {
			t.Errorf("single accuser already reported: %d", n)
		}
	})
	p.K.At(sim.MS(20), func() { q.Vote("Watch#1", VerdictFault, "stale") })
	p.K.At(sim.MS(25), func() {
		if n := reports(p, "Sensor"); n != 1 {
			t.Errorf("majority agreement reported %d times, want 1", n)
		}
		// Cleared: a third accusation alone cannot re-trip.
		q.Vote("Watch#2", VerdictFault, "stale")
	})
	p.Run(sim.MS(30))
	if n := reports(p, "Sensor"); n != 1 {
		t.Fatalf("reports = %d, want 1 (agreement must clear accusations)", n)
	}
	if got := p.Metrics.Counter("health_quorum_agreements_total", "",
		obs.Label{Key: "subject", Value: "Sensor"}).Value(); got != 1 {
		t.Fatalf("health_quorum_agreements_total = %d, want 1", got)
	}
}

// OK votes withdraw accusations and Suspect votes abstain: neither side
// of an inconclusive observer moves the tally.
func TestQuorumWithdrawAndAbstain(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	q, err := NewQuorum(p, "Sensor", p.ReplicaGroup("Watch"))
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() {
		q.Vote("Watch", VerdictFault, "stale")
		q.Vote("Watch", VerdictOK, "") // recants
		q.Vote("Watch#1", VerdictFault, "stale")
		q.Vote("Watch#2", VerdictSuspect, "") // abstains
		if live, faults := q.Tally(); live != 3 || faults != 1 {
			t.Errorf("tally = %d live / %d faults, want 3/1", live, faults)
		}
	})
	p.Run(sim.MS(20))
	if n := reports(p, "Sensor"); n != 0 {
		t.Fatalf("reports = %d, want 0 (1 of 3 is no majority)", n)
	}
}

// Accusations age out of the 25ms window: two fault votes 30ms apart never
// form a concurrent majority.
func TestQuorumWindowExpiry(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	q, err := NewQuorum(p, "Sensor", p.ReplicaGroup("Watch"))
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() { q.Vote("Watch", VerdictFault, "stale") })
	p.K.At(sim.MS(40), func() { q.Vote("Watch#1", VerdictFault, "stale") })
	p.Run(sim.MS(50))
	if n := reports(p, "Sensor"); n != 0 {
		t.Fatalf("reports = %d, want 0 (first accusation expired)", n)
	}
}

// Observers on killed ECUs leave the electorate entirely: they neither
// vote nor raise the majority bar, so the two survivors' agreement
// reports — and with every observer dead nothing ever can.
func TestQuorumDeadObserversShrinkElectorate(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	q, err := NewQuorum(p, "Sensor", p.ReplicaGroup("Watch"))
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() {
		if err := p.KillECU("e3"); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	p.K.At(sim.MS(20), func() {
		q.Vote("Watch", VerdictFault, "stale")
		q.Vote("Watch#1", VerdictFault, "stale")
		if live, faults := q.Tally(); live != 2 || faults != 0 {
			// The agreement fired and cleared the accusations.
			t.Errorf("tally = %d/%d after agreement, want 2/0", live, faults)
		}
	})
	p.Run(sim.MS(30))
	if n := reports(p, "Sensor"); n != 1 {
		t.Fatalf("reports = %d, want 1 (2-of-2 survivors agree)", n)
	}

	// A dead observer's own stale vote must not linger either.
	p2 := rte.MustBuild(quorumSystem(t), rte.Options{})
	q2, err := NewQuorum(p2, "Sensor", p2.ReplicaGroup("Watch"))
	if err != nil {
		t.Fatal(err)
	}
	p2.K.At(sim.MS(10), func() { q2.Vote("Watch#2", VerdictFault, "stale") })
	p2.K.At(sim.MS(12), func() {
		if err := p2.KillECU("e3"); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	p2.K.At(sim.MS(20), func() { q2.Vote("Watch", VerdictFault, "stale") })
	p2.Run(sim.MS(30))
	// Watch's single live accusation is 1 of 2: no majority. The dead
	// Watch#2's earlier vote must not count toward one.
	if n := reports(p2, "Sensor"); n != 0 {
		t.Fatalf("reports = %d, want 0 (dead observer's vote counted)", n)
	}
}

// A single-observer quorum degenerates to direct reporting: every fault
// vote is a 1-of-1 majority, the E13 wiring expressed through the same
// gate.
func TestQuorumOfOneReportsDirectly(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	q, err := NewQuorum(p, "Ctrl", []string{"Watch"})
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() { q.Vote("Watch", VerdictFault, "stale") })
	p.K.At(sim.MS(20), func() { q.Vote("Watch", VerdictFault, "still stale") })
	p.Run(sim.MS(30))
	if n := reports(p, "Ctrl"); n != 2 {
		t.Fatalf("reports = %d, want 2 (each vote is its own majority)", n)
	}
}

// Unregistered voters are dropped and metered — a foreign instance
// cannot stuff the ballot — and malformed construction fails fast.
func TestQuorumValidation(t *testing.T) {
	p := rte.MustBuild(quorumSystem(t), rte.Options{})
	if _, err := NewQuorum(p, "NoSuch", []string{"Watch"}); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if _, err := NewQuorum(p, "Sensor", nil); err == nil {
		t.Fatal("empty observer set accepted")
	}
	if _, err := NewQuorum(p, "Sensor", []string{"Watch", "Watch"}); err == nil {
		t.Fatal("duplicate observer accepted")
	}
	if _, err := NewQuorum(p, "Sensor", []string{"NoSuch"}); err == nil {
		t.Fatal("unknown observer accepted")
	}
	q, err := NewQuorum(p, "Sensor", []string{"Watch"})
	if err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(10), func() {
		q.Vote("Ctrl", VerdictFault, "not an observer")
		q.Vote("Watch", Verdict(9), "unknown verdict")
	})
	p.Run(sim.MS(20))
	if n := reports(p, "Sensor"); n != 0 {
		t.Fatalf("reports = %d, want 0 (dropped votes must not count)", n)
	}
	if got := p.Metrics.Counter("health_quorum_unknown_votes_total", "").Value(); got != 2 {
		t.Fatalf("health_quorum_unknown_votes_total = %d, want 2", got)
	}
}
