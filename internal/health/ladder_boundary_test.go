package health

import (
	"fmt"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// The ladder escalates exactly when attemptsAtRung reaches MaxAttempts:
// every non-terminal rung of an unreplicated system is attempted exactly
// MaxAttempts times — never one more, never one fewer — and the terminal
// safe-stop fires once.
func TestEscalationExactlyAtMaxAttempts(t *testing.T) {
	for _, max := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			p := rte.MustBuild(testSystem(), rte.Options{})
			if err := p.SetBehavior("Sensor", "sample", faultySensor); err != nil {
				t.Fatal(err)
			}
			m := NewMonitor(p, MonitorOptions{})
			m.MustProtect("Sensor", Policy{
				MaxAttempts: max, Cooldown: sim.MS(5),
				ResetDowntime: sim.MS(10), HealAfter: sim.MS(200),
			})
			p.Run(sim.MS(2000))
			if st := m.Status()[0]; st.State != SafeStopped {
				t.Fatalf("final state %v, want safe-stopped", st.State)
			}
			for _, rung := range []Rung{RungNotify, RungRestartRunnable, RungRestartPartition, RungECUReset} {
				got := p.Metrics.Counter("health_escalations_total", "",
					obs.Label{Key: "rung", Value: rung.String()}).Value()
				if got != uint64(max) {
					t.Fatalf("rung %v attempted %d times, want exactly %d", rung, got, max)
				}
			}
			// Unreplicated: the failover rung is skipped outright.
			if got := p.Metrics.Counter("health_escalations_total", "",
				obs.Label{Key: "rung", Value: RungFailover.String()}).Value(); got != 0 {
				t.Fatalf("failover attempted %d times on an unreplicated partition", got)
			}
			if got := p.Metrics.Counter("health_escalations_total", "",
				obs.Label{Key: "rung", Value: RungSafeStop.String()}).Value(); got != 1 {
				t.Fatalf("safe-stop fired %d times, want once", got)
			}
		})
	}
}

// HealAfter closes an episode mid-backoff: a transient fault cured by the
// first notify leaves the guard waiting out a doubled cooldown, and the
// quiet period must heal the episode rather than letting the stale
// backoff keep it open. The heal also resets rung and cooldown, so a
// second transient starts the ladder from the bottom again.
func TestHealAfterClosesEpisodeMidBackoff(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	// Two fault bursts: 0-30ms and 100-130ms. Each is shorter than the
	// base cooldown, so only the first attempt of each episode ever runs.
	if err := p.SetBehavior("Sensor", "sample", func(c *rte.Context) {
		c.Write("out", "v", 1)
		now := c.Now()
		if now < sim.MS(30) || (now >= sim.MS(100) && now < sim.MS(130)) {
			c.Report(rte.ErrSensor, "transient fault")
		}
	}); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Sensor", Policy{
		MaxAttempts: 5, Cooldown: sim.MS(160),
		HealAfter: sim.MS(25),
	})
	p.Run(sim.MS(300))

	st := m.Status()[0]
	if st.State != Healthy || st.Episodes != 2 {
		t.Fatalf("status %+v, want 2 healed episodes", st)
	}
	// One notify per episode; the 2x backoff (320ms) never expired before
	// the heal, and the heal reset it, so the ladder never climbed.
	if got := p.Metrics.Counter("health_escalations_total", "",
		obs.Label{Key: "rung", Value: RungNotify.String()}).Value(); got != 2 {
		t.Fatalf("notify attempted %d times, want 2 (one per episode)", got)
	}
	if got := p.Metrics.Counter("health_escalations_total", "",
		obs.Label{Key: "rung", Value: RungRestartRunnable.String()}).Value(); got != 0 {
		t.Fatalf("ladder climbed to restart-runnable %d times during backoff", got)
	}
	if got := p.Metrics.Counter("health_recoveries_total", "",
		obs.Label{Key: "swc", Value: "Sensor"}).Value(); got != 2 {
		t.Fatalf("health_recoveries_total = %d, want 2", got)
	}
}
