package health

import (
	"fmt"

	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Rung is one step of the recovery escalation ladder.
type Rung uint8

// The escalation ladder, mildest first. A qualified fault starts at
// RungNotify; every MaxAttempts failed attempts climb one rung.
const (
	// RungNotify switches the platform into the "recovery" mode so
	// subscribed application handlers can react (clear caches, re-init
	// peripherals) without the platform touching any task.
	RungNotify Rung = iota
	// RungRestartRunnable kills and re-releases the partition's configured
	// runnable.
	RungRestartRunnable
	// RungRestartPartition restarts the whole SWC partition: all jobs
	// killed, port state re-initialized. Enters at least Degraded.
	RungRestartPartition
	// RungFailover promotes a standby replica of the partition on another
	// ECU (rte.FailOver) — the fail-operational move for faults local
	// restarts cannot cure, milder than resetting the whole ECU. The
	// ladder skips this rung for partitions without a live standby.
	RungFailover
	// RungECUReset resets the partition's ECU with a reboot downtime.
	// Enters at least LimpHome.
	RungECUReset
	// RungSafeStop sheds the partition permanently (SafeStop level when a
	// degradation controller is attached). Terminal.
	RungSafeStop
)

var rungNames = [...]string{"notify", "restart-runnable", "restart-partition", "failover", "ecu-reset", "safe-stop"}

func (r Rung) String() string {
	if int(r) < len(rungNames) {
		return rungNames[r]
	}
	return fmt.Sprintf("rung(%d)", uint8(r))
}

// Policy tunes error qualification and recovery escalation for one
// protected partition. The zero value gets sensible defaults.
type Policy struct {
	// Debounce tunes error qualification (see DebounceConfig).
	Debounce DebounceConfig
	// MaxAttempts is how many recovery attempts run at each rung before
	// escalating to the next (default 2).
	MaxAttempts int
	// Cooldown is the wait between recovery attempts at the same episode
	// (default 20ms); it doubles after every attempt at a rung and resets
	// when the ladder escalates.
	Cooldown sim.Duration
	// Runnable is restarted by RungRestartRunnable (default: the
	// component's first runnable).
	Runnable string
	// ResetDowntime is the reboot window of RungECUReset (default 20ms).
	ResetDowntime sim.Duration
	// HealAfter closes an episode once the partition has been error-free
	// that long and its debounce counters have decayed (default 50ms).
	HealAfter sim.Duration
}

func (p Policy) fill(firstRunnable string) Policy {
	p.Debounce = p.Debounce.fill()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 2
	}
	if p.Cooldown <= 0 {
		p.Cooldown = sim.MS(20)
	}
	if p.ResetDowntime <= 0 {
		p.ResetDowntime = sim.MS(20)
	}
	if p.HealAfter <= 0 {
		p.HealAfter = sim.MS(50)
	}
	if p.Runnable == "" {
		p.Runnable = firstRunnable
	}
	return p
}

// guard is the per-partition supervision and escalation state.
type guard struct {
	m         *Monitor
	swc       string
	ecu       string
	pol       Policy
	deb       *debouncer
	taskNames []string
	flows     map[string]*flowMonitor

	rung            Rung
	attemptsAtRung  int
	cooldown        sim.Duration
	notBefore       sim.Time
	pending         bool
	active          bool
	safeStopped     bool
	episodeStart    sim.Time
	episodeAttempts int
	lastErrorAt     sim.Time
	lastAttemptAt   sim.Time
	errsInWindow    int
	missBase        int
	episodes        int64
	attempts        int64
}

// onError feeds one raw platform error into qualification. Runs inside
// ErrorManager.Report via the OnReport hook.
func (g *guard) onError(rec rte.ErrorRecord) {
	if g.safeStopped {
		return
	}
	now := sim.Time(rec.At)
	g.errsInWindow++
	g.lastErrorAt = now
	if g.deb.fail(rec.Source, rec.Kind) {
		if !g.active {
			g.active = true
			g.episodeStart = now
			g.episodeAttempts = 0
			g.episodes++
			g.m.p.Metrics.Counter("health_qualified_faults_total",
				"Fault episodes that crossed the debounce threshold, by partition.",
				obs.Label{Key: "swc", Value: g.swc}).Inc()
			g.m.p.DLT.Emitf(int64(now), obs.LevelWarn, "HLTH", "QUAL",
				"%s: fault qualified (%s from %s)", g.swc, rec.Kind, rec.Source)
		}
		g.schedule(now)
	}
}

// window runs once per supervision window: deadline supervision, debounce
// decay, heal detection and re-escalation while the fault persists.
func (g *guard) window(at sim.Time) {
	if g.safeStopped {
		return
	}
	g.checkDeadlines(at)
	if g.errsInWindow == 0 {
		g.deb.pass()
		if g.active && at-g.lastErrorAt >= g.pol.HealAfter && g.deb.clear() {
			g.heal(at)
		}
	} else if g.active && !g.pending && at >= g.notBefore {
		// The fault is still producing errors after the cooldown: the last
		// attempt did not cure it, try the next one.
		g.schedule(at)
	}
	g.errsInWindow = 0
}

// checkDeadlines reports new deadline misses of the partition's tasks
// since the last window as a timing error (deadline supervision). O(1)
// per task thanks to the trace recorder's incremental counts.
func (g *guard) checkDeadlines(at sim.Time) {
	miss := 0
	for _, name := range g.taskNames {
		miss += g.m.p.Trace.Count(trace.Miss, name)
	}
	d := miss - g.missBase
	g.missBase = miss
	if d > 0 {
		g.m.p.Errors.Report(g.swc, rte.ErrTiming,
			fmt.Sprintf("deadline supervision: %d missed deadlines in window ending %v", d, at))
	}
}

// schedule queues the next recovery attempt, honouring the cooldown gate.
func (g *guard) schedule(now sim.Time) {
	if g.pending || g.safeStopped {
		return
	}
	g.pending = true
	at := now
	if g.notBefore > at {
		at = g.notBefore
	}
	// Priority 27: after supervision checks (25) and monitor windows (26)
	// at the same instant, so an attempt sees that instant's full picture.
	g.m.p.K.AtPrio(at, 27, g.attempt)
}

// attempt executes one recovery action at the current rung and advances
// the ladder position.
func (g *guard) attempt() {
	g.pending = false
	if g.safeStopped || !g.active {
		return
	}
	p := g.m.p
	now := p.K.Now()
	rung := g.rung
	g.attempts++
	g.episodeAttempts++
	g.attemptsAtRung++
	g.lastAttemptAt = now
	p.Metrics.Counter("health_escalations_total",
		"Recovery attempts performed by the escalation ladder, by rung.",
		obs.Label{Key: "rung", Value: rung.String()}).Inc()
	p.Trace.Emit(now, trace.Recover, g.swc, g.attempts, "recovery: "+rung.String())
	p.DLT.Emitf(int64(now), obs.LevelWarn, "HLTH", "ESCL",
		"%s: recovery attempt %d at rung %s", g.swc, g.attemptsAtRung, rung)
	p.Note("escalation", fmt.Sprintf("%s: rung %s attempt %d", g.swc, rung, g.attemptsAtRung))
	switch rung {
	case RungNotify:
		p.SwitchMode("recovery")
	case RungRestartRunnable:
		if err := p.RestartRunnable(g.swc, g.pol.Runnable); err != nil {
			panic(err) // validated at Protect time
		}
	case RungRestartPartition:
		if g.m.deg != nil {
			g.m.deg.AtLeast(Degraded)
		}
		if err := p.RestartComponent(g.swc); err != nil {
			panic(err)
		}
	case RungFailover:
		// Unlike the restart rungs this one can legitimately fail at
		// attempt time — the last standby's ECU may have died since the
		// ladder escalated here — so the error is logged and the ladder
		// keeps climbing instead of panicking.
		if err := p.FailOver(g.swc); err != nil {
			p.DLT.Emitf(int64(now), obs.LevelError, "HLTH", "FAIL",
				"%s: failover failed: %v", g.swc, err)
		} else {
			p.Metrics.Histogram("deploy_failover_latency_ns",
				"Virtual time from fault qualification to standby promotion.").
				Observe(int64(now - g.episodeStart))
		}
	case RungECUReset:
		// Degrade before resetting: runnables the new level sheds are
		// already suspended when the reset snapshots the reboot set, so the
		// post-downtime resume cannot re-enable them.
		if g.m.deg != nil {
			g.m.deg.AtLeast(LimpHome)
		}
		if err := p.ResetECU(g.ecu, g.pol.ResetDowntime); err != nil {
			panic(err)
		}
	case RungSafeStop:
		g.safeStop(now)
		return
	}
	// Severe escalations cut a black-box bundle after the action ran, so
	// the dump includes the action's own DLT/degradation effects.
	if rung >= RungRestartPartition {
		g.m.emitBundle("escalation:" + rung.String() + ":" + g.swc)
	}
	g.notBefore = now + g.cooldown
	g.cooldown *= 2
	if g.attemptsAtRung >= g.pol.MaxAttempts {
		g.rung++
		if g.rung == RungFailover && !p.HasStandby(g.swc) {
			// Nothing to promote: don't burn MaxAttempts cooldown rounds on
			// a rung that cannot act, go straight to the ECU reset.
			g.rung++
		}
		g.attemptsAtRung = 0
		g.cooldown = g.pol.Cooldown // backoff restarts per rung
	}
}

// safeStop is the terminal rung: the partition (or, with a degradation
// controller, the whole system) stops delivering its function.
func (g *guard) safeStop(now sim.Time) {
	g.safeStopped = true
	p := g.m.p
	if g.m.deg != nil {
		g.m.deg.To(SafeStop)
	} else {
		for _, name := range g.taskNames {
			i := indexDot(name)
			if err := p.SetRunnableEnabled(name[:i], name[i+1:], false); err != nil {
				panic(err)
			}
		}
		p.SwitchMode("safe-stop")
		p.DLT.Emitf(int64(now), obs.LevelError, "HLTH", "STOP", "%s: safe-stopped", g.swc)
	}
	p.Note("safe-stop", g.swc)
	g.m.emitBundle("safe-stop:" + g.swc)
}

// heal closes the episode: the partition has been error-free for
// HealAfter and every debounce counter decayed to zero.
func (g *guard) heal(at sim.Time) {
	p := g.m.p
	if g.episodeAttempts > 0 {
		lat := g.lastAttemptAt - g.episodeStart
		p.Metrics.Histogram("health_recovery_latency_ns",
			"Virtual time from fault qualification to the recovery attempt that cured it.").
			Observe(int64(lat))
	}
	p.Metrics.Counter("health_recoveries_total",
		"Fault episodes closed by successful recovery, by partition.",
		obs.Label{Key: "swc", Value: g.swc}).Inc()
	p.Trace.Emit(at, trace.Recover, g.swc, g.attempts,
		fmt.Sprintf("healed after %d attempts", g.episodeAttempts))
	p.DLT.Emitf(int64(at), obs.LevelInfo, "HLTH", "HEAL",
		"%s: healed after %d attempts (rung %s)", g.swc, g.episodeAttempts, g.rung)
	g.active = false
	g.rung = RungNotify
	g.attemptsAtRung = 0
	g.cooldown = g.pol.Cooldown
	g.notBefore = 0
	g.deb.reset()
	g.m.maybeRestoreNormal()
}
