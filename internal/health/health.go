// Package health is the health-monitoring and recovery subsystem layered
// on the RTE — the watchdog-manager / DEM half of the paper's reliable
// platform: raw platform errors are qualified through counter-based
// debouncing, partitions are supervised (alive, deadline and logical
// program-flow supervision), qualified faults climb a recovery escalation
// ladder (notify -> restart runnable -> restart partition -> ECU reset ->
// safe stop), and a graceful-degradation state machine sheds non-critical
// runnables while keeping the critical chains alive.
//
// Everything runs inside kernel events on the simulation's single event
// loop, so monitoring and recovery are as deterministic as the workload
// they supervise.
package health

import (
	"fmt"
	"sort"

	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// DefaultCheckWindow is the supervision window: once per window the
// monitor decays debounce counters, checks deadlines and decides
// heal/re-escalation per protected partition.
const DefaultCheckWindow = sim.Duration(10_000_000) // 10ms

// MonitorOptions tunes the monitor.
type MonitorOptions struct {
	// Degradation, when set, couples the escalation ladder to the
	// graceful-degradation state machine: partition restarts enter at
	// least Degraded, ECU resets at least LimpHome, safe-stop SafeStop,
	// and the level returns to Normal when every partition heals.
	Degradation *Degradation
	// BundleSink, when set, receives a diagnostic bundle cut by the
	// monitor on every severe escalation (rung restart-partition and
	// above) and on safe-stop — the automatic black-box dump. Typically
	// it writes the bundle to a file; it runs on the kernel goroutine
	// and must not block.
	BundleSink func(*obs.Bundle)
}

// Monitor watches protected partitions through the platform error path
// and drives recovery. Create with NewMonitor, then Protect each
// partition before Run.
type Monitor struct {
	p      *rte.Platform
	deg    *Degradation
	sink   func(*obs.Bundle)
	guards map[string]*guard
	// order fixes window processing to Protect call order; one entry per
	// protected partition, added once at setup.
	//autovet:bounded one entry per protected partition
	order   []string
	started bool
}

// NewMonitor attaches a health monitor to the platform. It chains onto
// any existing ErrorManager.OnReport hook.
func NewMonitor(p *rte.Platform, opts MonitorOptions) *Monitor {
	m := &Monitor{
		p:      p,
		deg:    opts.Degradation,
		sink:   opts.BundleSink,
		guards: map[string]*guard{},
	}
	prev := p.Errors.OnReport
	p.Errors.OnReport = func(rec rte.ErrorRecord) {
		if prev != nil {
			prev(rec)
		}
		if g := m.guards[rec.Source]; g != nil {
			g.onError(rec)
		}
	}
	return m
}

// Degradation returns the coupled degradation controller (nil if none).
func (m *Monitor) Degradation() *Degradation { return m.deg }

// emitBundle cuts a diagnostic bundle and hands it to the configured
// sink. No-op without one.
func (m *Monitor) emitBundle(reason string) {
	if m.sink == nil {
		return
	}
	if b := m.p.Bundle(reason); b != nil {
		m.sink(b)
	}
}

// Protect puts one SWC partition under health supervision with the given
// policy. Errors whose Source is the component name (behaviour reports,
// budget aborts, alive-supervision reports from rte.Supervise) feed its
// qualification; deadline supervision is installed automatically.
func (m *Monitor) Protect(swc string, pol Policy) error {
	comp := m.p.Sys.Component(swc)
	if comp == nil {
		return fmt.Errorf("health: unknown component %s", swc)
	}
	if m.guards[swc] != nil {
		return fmt.Errorf("health: component %s already protected", swc)
	}
	first := ""
	var taskNames []string
	for i := range comp.Runnables {
		if i == 0 {
			first = comp.Runnables[i].Name
		}
		taskNames = append(taskNames, swc+"."+comp.Runnables[i].Name)
	}
	pol = pol.fill(first)
	if pol.Runnable != "" && comp.Runnable(pol.Runnable) == nil {
		return fmt.Errorf("health: component %s has no runnable %s", swc, pol.Runnable)
	}
	g := &guard{
		m: m, swc: swc, ecu: m.p.Sys.Mapping[swc],
		pol: pol, deb: newDebouncer(pol.Debounce),
		taskNames: taskNames, flows: map[string]*flowMonitor{},
		cooldown: pol.Cooldown, lastErrorAt: -1,
	}
	m.guards[swc] = g
	m.order = append(m.order, swc)
	if !m.started {
		m.started = true
		// The periodic supervision window, priority 26: after in-instant
		// application work and alive supervision (25), before recovery
		// attempts (27) scheduled at the same instant.
		m.p.K.Every(m.p.K.Now()+DefaultCheckWindow, DefaultCheckWindow, 26, func(at sim.Time) {
			for _, name := range m.order {
				m.guards[name].window(at)
			}
		})
	}
	return nil
}

// MustProtect is Protect that panics on error; for tests and examples.
func (m *Monitor) MustProtect(swc string, pol Policy) {
	if err := m.Protect(swc, pol); err != nil {
		panic(err)
	}
}

// maybeRestoreNormal lowers degradation back to Normal once no partition
// has an active fault episode. SafeStop is terminal: it is never left
// automatically.
func (m *Monitor) maybeRestoreNormal() {
	if m.deg == nil || m.deg.Level() == Normal || m.deg.Level() == SafeStop {
		return
	}
	for _, g := range m.guards {
		if g.active || g.safeStopped {
			return
		}
	}
	m.deg.To(Normal)
}

// State classifies a protected partition's current health.
type State uint8

// Partition health states.
const (
	// Healthy: no debounce counter raised, no active episode.
	Healthy State = iota
	// Qualifying: raw errors seen but the threshold not yet crossed.
	Qualifying
	// Recovering: a qualified episode is active; the ladder is working.
	Recovering
	// SafeStopped: the terminal rung fired.
	SafeStopped
)

var stateNames = [...]string{"healthy", "qualifying", "recovering", "safe-stopped"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// PartitionStatus is the aggregated health of one protected partition.
type PartitionStatus struct {
	SWC         string
	State       State
	Rung        Rung  // current ladder position (meaningful while Recovering)
	Episodes    int64 // qualified fault episodes so far
	Attempts    int64 // recovery attempts so far
	LastErrorAt sim.Time
}

// Status returns the per-partition health, sorted by component name.
func (m *Monitor) Status() []PartitionStatus {
	out := make([]PartitionStatus, 0, len(m.guards))
	for _, swc := range m.order {
		g := m.guards[swc]
		st := Healthy
		switch {
		case g.safeStopped:
			st = SafeStopped
		case g.active:
			st = Recovering
		case !g.deb.clear():
			st = Qualifying
		}
		out = append(out, PartitionStatus{
			SWC: swc, State: st, Rung: g.rung,
			Episodes: g.episodes, Attempts: g.attempts,
			LastErrorAt: g.lastErrorAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SWC < out[j].SWC })
	return out
}
