// Package osek simulates an OSEK/AUTOSAR-OS-like single-core kernel in
// virtual time: fixed-priority preemptive scheduling, activation queues,
// resources with the immediate priority-ceiling protocol, periodic
// activation (Task.Period on the kernel's Every), deadline monitoring and
// per-job execution budgets (timing protection).
//
// The simulation is exact: execution demand is consumed in virtual time on
// the sim kernel, so preemption, blocking and budget exhaustion happen at
// precisely computable instants, independent of the Go runtime.
package osek

import (
	"fmt"

	"autorte/internal/sim"
)

// Throttle constrains when a task may consume the CPU. Reservation servers
// and time-triggered dispatch windows (package protection) implement it;
// a nil Throttle means the task runs whenever it is the highest-priority
// ready task.
type Throttle interface {
	// Bind attaches the throttle to a CPU's kernel. notify must be called
	// whenever eligibility may have changed (replenishment, window start).
	Bind(k *sim.Kernel, notify func())
	// Available returns how much contiguous execution the throttle allows
	// starting now. Zero means the task is currently ineligible.
	Available(now sim.Time) sim.Duration
	// Charge consumes d of the throttle's supply, ending at now.
	Charge(now sim.Time, d sim.Duration)
	// Pending informs the throttle whether its tasks have queued work.
	// Polling servers use this to discard their budget when idle.
	Pending(now sim.Time, pending bool)
}

// Resource is an OSEK resource governed by the immediate priority-ceiling
// protocol: while a task holds it, the task runs at the resource ceiling.
type Resource struct {
	Name    string
	Ceiling int
}

// Task is a schedulable unit. In AUTOSAR terms one OS task typically hosts
// one or more runnables; package rte performs that mapping.
type Task struct {
	Name     string
	Priority int // higher value = higher priority (OSEK convention)
	// WCET is the nominal per-job execution demand on a speed-1.0 core.
	WCET sim.Duration
	// Jitter func, if set, returns the actual demand of job n (fault
	// injection and execution-time variation hook). Demand exceeding the
	// Budget is cut off when budget enforcement is on.
	Demand func(job int64) sim.Duration
	// Period/Offset make the task auto-activated periodically. Zero period
	// means the task is only activated externally (event-triggered).
	Period sim.Duration
	Offset sim.Duration
	// Deadline is relative to activation; 0 defaults to Period (or no
	// monitoring for event-triggered tasks).
	Deadline sim.Duration
	// Budget, when positive, bounds per-job execution time; a job hitting
	// the budget is aborted (AUTOSAR timing protection).
	Budget sim.Duration
	// Resource, when set, is held for the whole job body (immediate
	// ceiling: the job executes at max(Priority, Ceiling)).
	Resource *Resource
	// Throttle subordinates the task to a reservation server or TT window.
	Throttle Throttle
	// MaxQueued bounds pending activations beyond the running one;
	// activations past the bound are dropped (E_OS_LIMIT). Default 1.
	MaxQueued int
	// Supplier tags the IP owner for per-supplier interference accounting.
	Supplier string
	// OnStart/OnFinish/OnAbort observe job lifecycle (RTE hooks).
	OnStart  func(job int64)
	OnFinish func(job int64)
	OnAbort  func(job int64)

	cpu       *CPU
	nextJob   int64
	pending   []pendingActivation // queued activations beyond the current job
	current   *job
	released  int64
	suspended bool
}

// Suspended reports whether the task is currently suspended (activations
// are dropped; see CPU.SetSuspended).
func (t *Task) Suspended() bool { return t.suspended }

// pendingActivation is a queued activation waiting for the current job to
// finish; it keeps the original arrival time for response-time accounting.
type pendingActivation struct {
	id int64
	at sim.Time
}

// job is one activation of a task.
type job struct {
	task      *Task
	id        int64
	activated sim.Time
	remaining sim.Duration // demand left, in CPU-time units
	budget    sim.Duration // budget left (Infinity when unenforced)
	started   bool
	deadline  sim.Event
	missed    bool
}

// effectivePriority is the dispatch priority: the resource ceiling applies
// for the whole body under the immediate-ceiling protocol.
func (j *job) effectivePriority() int {
	p := j.task.Priority
	if j.task.Resource != nil && j.task.Resource.Ceiling > p {
		p = j.task.Resource.Ceiling
	}
	return p
}

func (t *Task) validate() error {
	if t.Name == "" {
		return fmt.Errorf("osek: task with empty name")
	}
	if t.WCET <= 0 && t.Demand == nil {
		return fmt.Errorf("osek: task %s: no execution demand", t.Name)
	}
	if t.Period < 0 || t.Offset < 0 || t.Deadline < 0 || t.Budget < 0 {
		return fmt.Errorf("osek: task %s: negative timing parameter", t.Name)
	}
	return nil
}

// demandOf returns the actual execution demand of job n.
func (t *Task) demandOf(n int64) sim.Duration {
	if t.Demand != nil {
		return t.Demand(n)
	}
	return t.WCET
}

// relativeDeadline returns the monitored deadline, or 0 for none.
func (t *Task) relativeDeadline() sim.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}
