package rte

import (
	"fmt"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Supervise installs alive supervision on a runnable (the watchdog-manager
// pattern): if the runnable completes no job during any supervision window,
// a timing error is reported through the platform error path. Supervision
// re-arms after recovery, so an intermittent stall produces one report per
// stall episode. Call before Run.
func (p *Platform) Supervise(swc, runnable string, window sim.Duration) error {
	name := swc + "." + runnable
	if p.tasks[name] == nil {
		return fmt.Errorf("rte: no task %s to supervise", name)
	}
	if window <= 0 {
		return fmt.Errorf("rte: supervision window must be positive")
	}
	lastCount := 0
	stalled := false
	p.K.Every(p.K.Now()+window, window, 25, func(sim.Time) {
		finished := p.Trace.Count(trace.Finish, name)
		if finished == lastCount {
			if !stalled {
				stalled = true
				p.Errors.Report(swc, ErrTiming, runnable+" missed its alive supervision window")
			}
		} else {
			stalled = false
		}
		lastCount = finished
	})
	return nil
}
