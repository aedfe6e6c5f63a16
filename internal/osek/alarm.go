package osek

import (
	"fmt"

	"autorte/internal/sim"
)

// Counter is an OSEK counter: a tick source derived from virtual time.
// Alarms attach to counters and fire on tick multiples.
type Counter struct {
	Name string
	// TickLength is the virtual duration of one counter tick.
	TickLength sim.Duration

	k *sim.Kernel
}

// NewCounter creates a counter on the kernel.
func NewCounter(k *sim.Kernel, name string, tick sim.Duration) (*Counter, error) {
	if tick <= 0 {
		return nil, fmt.Errorf("osek: counter %s: non-positive tick", name)
	}
	return &Counter{Name: name, TickLength: tick, k: k}, nil
}

// Alarm fires an action on a counter schedule: first after Start ticks,
// then every Cycle ticks (Cycle 0 = single shot).
type Alarm struct {
	Name   string
	Start  int64
	Cycle  int64
	Action func()
	cancel func()
}

// SetAlarm installs an alarm on the counter. Task activation is the usual
// action: pass func() { cpu.Activate(task) }.
func (c *Counter) SetAlarm(name string, start, cycle int64, action func()) (*Alarm, error) {
	if start <= 0 {
		return nil, fmt.Errorf("osek: alarm %s: start must be positive", name)
	}
	if cycle < 0 {
		return nil, fmt.Errorf("osek: alarm %s: negative cycle", name)
	}
	if action == nil {
		return nil, fmt.Errorf("osek: alarm %s: nil action", name)
	}
	a := &Alarm{Name: name, Start: start, Cycle: cycle, Action: action}
	at := c.k.Now() + sim.Duration(start)*c.TickLength
	if cycle == 0 {
		a.cancel = c.k.At(at, func() { a.Action() }).Cancel
	} else {
		a.cancel = c.k.Every(at, sim.Duration(cycle)*c.TickLength, 0, func(sim.Time) { a.Action() })
	}
	return a, nil
}

// Cancel stops the alarm (OSEK CancelAlarm).
func (a *Alarm) Cancel() { a.cancel() }
