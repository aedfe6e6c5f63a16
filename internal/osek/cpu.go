package osek

import (
	"fmt"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// CPU is a single simulated core with a fixed-priority preemptive
// scheduler. All methods must be called from kernel event context or
// before the simulation starts.
type CPU struct {
	Name  string
	Speed float64 // scales nominal WCETs: demand = WCET / Speed
	Trace *trace.Recorder
	// CtxSwitch, when positive, charges a dispatch overhead each time a
	// job gains the core (start and every resume). The cost is billed to
	// the incoming job's demand — and to its budget, as on real AUTOSAR
	// OS implementations where the context switch runs on the partition's
	// time.
	CtxSwitch sim.Duration

	k      *sim.Kernel
	tasks  []*Task
	active []*job // one unfinished job per task, at most

	running    *job
	runStart   sim.Time
	checkpoint sim.Event

	busy    sim.Duration // total executed time (utilization accounting)
	started bool
}

// NewCPU creates a core bound to the kernel. speed 0 defaults to 1.
func NewCPU(k *sim.Kernel, name string, speed float64, rec *trace.Recorder) *CPU {
	if speed <= 0 {
		speed = 1
	}
	return &CPU{Name: name, Speed: speed, Trace: rec, k: k}
}

// Kernel returns the simulation kernel the CPU runs on.
func (c *CPU) Kernel() *sim.Kernel { return c.k }

// Busy returns the total virtual time the core has executed jobs.
func (c *CPU) Busy() sim.Duration { return c.busy }

// Utilization returns busy time divided by elapsed time.
func (c *CPU) Utilization() float64 {
	if c.k.Now() == 0 {
		return 0
	}
	return float64(c.busy) / float64(c.k.Now())
}

// AddTask registers a task. Must be called before Start.
func (c *CPU) AddTask(t *Task) error {
	if c.started {
		return fmt.Errorf("osek: cpu %s: AddTask after Start", c.Name)
	}
	if err := t.validate(); err != nil {
		return err
	}
	for _, other := range c.tasks {
		if other.Name == t.Name {
			return fmt.Errorf("osek: cpu %s: duplicate task %s", c.Name, t.Name)
		}
	}
	if t.MaxQueued == 0 {
		t.MaxQueued = 1
	}
	t.cpu = c
	c.tasks = append(c.tasks, t)
	return nil
}

// MustAddTask is AddTask that panics on error; for tests and examples.
func (c *CPU) MustAddTask(t *Task) {
	if err := c.AddTask(t); err != nil {
		panic(err)
	}
}

// Tasks returns the registered tasks.
func (c *CPU) Tasks() []*Task { return c.tasks }

// Task returns the named task, or nil.
func (c *CPU) Task(name string) *Task {
	for _, t := range c.tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Start installs periodic activations and binds throttles. Call once,
// before running the kernel.
func (c *CPU) Start() {
	if c.started {
		return
	}
	c.started = true
	bound := map[Throttle]bool{}
	for _, t := range c.tasks {
		if t.Throttle != nil && !bound[t.Throttle] {
			bound[t.Throttle] = true
			t.Throttle.Bind(c.k, c.reschedule)
		}
		if t.Period > 0 {
			c.k.Every(t.Offset, t.Period, 10, func(sim.Time) { c.Activate(t) })
		}
	}
}

// Activate releases one job of t (or queues the activation if a job is in
// progress). Returns false if the activation was dropped because the queue
// limit was reached (OSEK E_OS_LIMIT) or the task is suspended.
func (c *CPU) Activate(t *Task) bool {
	now := c.k.Now()
	if t.suspended {
		// Suspended tasks shed every activation; the Drop record is the
		// auditable evidence that a shed runnable stayed inactive.
		c.Trace.Emit(now, trace.Drop, t.Name, t.nextJob, "suspended")
		return false
	}
	id := t.nextJob
	t.nextJob++
	c.Trace.Emit(now, trace.Activate, t.Name, id, "")
	if t.current != nil {
		if len(t.pending) >= t.MaxQueued {
			c.Trace.Emit(now, trace.Drop, t.Name, id, "activation limit")
			return false
		}
		t.pending = append(t.pending, pendingActivation{id: id, at: now})
		return true
	}
	c.release(t, id, now)
	return true
}

// release makes job id of t schedulable.
func (c *CPU) release(t *Task, id int64, activated sim.Time) {
	demand := t.demandOf(id)
	if demand < 0 {
		demand = 0
	}
	j := &job{
		task:      t,
		id:        id,
		activated: activated,
		remaining: sim.Duration(float64(demand) / c.Speed),
		budget:    sim.Infinity,
	}
	if t.Budget > 0 {
		j.budget = t.Budget
	}
	t.current = j
	t.released++
	c.active = append(c.active, j)
	if d := t.relativeDeadline(); d > 0 {
		due := activated + d
		if due <= c.k.Now() {
			// A queued activation can be released after its deadline
			// already passed under overload.
			j.missed = true
			c.Trace.Emit(c.k.Now(), trace.Miss, t.Name, j.id, "released late")
		} else {
			j.deadline = c.k.AtPrio(due, 20, func() {
				if t.current == j && !j.missed {
					j.missed = true
					c.Trace.Emit(c.k.Now(), trace.Miss, t.Name, j.id, "")
				}
			})
		}
	}
	if t.Throttle != nil {
		t.Throttle.Pending(c.k.Now(), true)
	}
	if j.remaining == 0 {
		c.finish(j, false)
		return
	}
	c.reschedule()
}

// charge books elapsed execution onto the running job.
func (c *CPU) charge() {
	if c.running == nil {
		return
	}
	elapsed := c.k.Now() - c.runStart
	if elapsed <= 0 {
		return
	}
	j := c.running
	j.remaining -= elapsed
	if j.budget != sim.Infinity {
		j.budget -= elapsed
	}
	if j.task.Throttle != nil {
		j.task.Throttle.Charge(c.k.Now(), elapsed)
	}
	c.busy += elapsed
	c.runStart = c.k.Now()
}

// pick returns the highest-priority eligible job, or nil.
func (c *CPU) pick() *job {
	var best *job
	for _, j := range c.active {
		if j.task.Throttle != nil && j.task.Throttle.Available(c.k.Now()) <= 0 {
			continue
		}
		if best == nil || j.effectivePriority() > best.effectivePriority() ||
			(j.effectivePriority() == best.effectivePriority() && j.activated < best.activated) {
			best = j
		}
	}
	return best
}

// reschedule is the single dispatch point: it charges the running job,
// picks the best eligible job and programs the next checkpoint.
func (c *CPU) reschedule() {
	c.charge()
	c.checkpoint.Cancel()
	// Charging may have completed (or budget-exhausted) the running job:
	// handle that here, because the checkpoint that would have detected it
	// was just cancelled.
	if j := c.running; j != nil && (j.remaining <= 0 || j.budget <= 0) {
		c.running = nil
		c.finish(j, j.remaining > 0)
		return // finish re-enters reschedule
	}
	next := c.pick()
	if next != c.running {
		if c.running != nil && c.running.remaining > 0 {
			c.Trace.Emit(c.k.Now(), trace.Preempt, c.running.task.Name, c.running.id, "")
		}
		if next != nil {
			kind := trace.Start
			if next.started {
				kind = trace.Resume
			} else {
				next.started = true
				if next.task.OnStart != nil {
					next.task.OnStart(next.id)
				}
			}
			if c.CtxSwitch > 0 {
				next.remaining += c.CtxSwitch
			}
			c.Trace.Emit(c.k.Now(), kind, next.task.Name, next.id, "")
		}
		c.running = next
	}
	if c.running == nil {
		return
	}
	j := c.running
	c.runStart = c.k.Now()
	slice := j.remaining
	if j.budget < slice {
		slice = j.budget
	}
	if j.task.Throttle != nil {
		if avail := j.task.Throttle.Available(c.k.Now()); avail < slice {
			slice = avail
		}
	}
	c.checkpoint = c.k.AtPrio(c.k.Now()+slice, 5, c.onCheckpoint)
}

// onCheckpoint fires when the running job completes its slice: it either
// finished, exhausted its budget, or exhausted its throttle.
func (c *CPU) onCheckpoint() {
	c.charge()
	j := c.running
	if j == nil {
		c.reschedule()
		return
	}
	switch {
	case j.remaining <= 0:
		c.running = nil
		c.finish(j, false)
	case j.budget <= 0:
		c.running = nil
		c.finish(j, true)
	default:
		// Throttle exhausted: job stays active but ineligible.
		c.reschedule()
	}
}

// Kill aborts the current job of t (if any) and discards its queued
// activations — the restart primitive of recovery escalation. Unlike a
// budget abort it fires no OnAbort hook: killing is a deliberate recovery
// action, not a detected fault. Returns whether a job was in progress.
func (c *CPU) Kill(t *Task, reason string) bool {
	t.pending = nil
	j := t.current
	if j == nil {
		return false
	}
	if c.running == j {
		c.charge()
		c.running = nil
	}
	j.deadline.Cancel()
	for i, a := range c.active {
		if a == j {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	t.current = nil
	c.Trace.Emit(c.k.Now(), trace.Abort, t.Name, j.id, reason)
	if t.Throttle != nil {
		t.Throttle.Pending(c.k.Now(), c.throttleHasWork(t.Throttle))
	}
	c.reschedule()
	return true
}

// SetSuspended suspends or resumes a task. Suspending kills the job in
// progress and sheds every subsequent activation (periodic releases keep
// arriving and are dropped with a "suspended" trace record); resuming lets
// the next activation through unchanged. Degraded operating modes use this
// to shed non-critical runnables.
func (c *CPU) SetSuspended(t *Task, suspended bool) {
	if t.suspended == suspended {
		return
	}
	t.suspended = suspended
	if suspended {
		c.Kill(t, "suspended")
	}
}

// throttleHasWork reports whether any task governed by th has a pending
// or in-progress job.
func (c *CPU) throttleHasWork(th Throttle) bool {
	for _, t := range c.tasks {
		if t.Throttle != th {
			continue
		}
		if t.current != nil || len(t.pending) > 0 {
			return true
		}
	}
	return false
}

// finish completes or aborts a job and releases any queued activation.
func (c *CPU) finish(j *job, aborted bool) {
	t := j.task
	now := c.k.Now()
	j.deadline.Cancel()
	for i, a := range c.active {
		if a == j {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	t.current = nil
	if aborted {
		c.Trace.Emit(now, trace.Abort, t.Name, j.id, "budget exhausted")
		if t.OnAbort != nil {
			t.OnAbort(j.id)
		}
	} else {
		c.Trace.Emit(now, trace.Finish, t.Name, j.id, "")
		if t.OnFinish != nil {
			t.OnFinish(j.id)
		}
	}
	if t.Throttle != nil {
		// Report aggregate demand across every task sharing the throttle,
		// so a server with work left from a sibling keeps its budget.
		t.Throttle.Pending(now, c.throttleHasWork(t.Throttle))
	}
	if len(t.pending) > 0 {
		next := t.pending[0]
		t.pending = t.pending[1:]
		c.release(t, next.id, next.at)
	} else {
		c.reschedule()
	}
}
