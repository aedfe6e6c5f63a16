// Package sched provides the schedulability analyses §3 calls for:
// worst-case response-time analysis for fixed-priority preemptive tasks
// (with blocking and release jitter), total utilization, and
// priority-assignment algorithms (deadline-monotonic and Audsley's
// optimal assignment).
//
// The task model matches what the RTE generates from runnables, so the
// same system can be verified statically and then simulated; experiment
// E5 checks that the analysis dominates the simulation.
package sched

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
)

// Task is the analyzable abstraction of an OS task.
type Task struct {
	Name string
	// C is the worst-case execution time on the target core.
	C sim.Duration
	// T is the period (or minimum inter-arrival time).
	T sim.Duration
	// D is the relative deadline; 0 defaults to T.
	D sim.Duration
	// J is the release jitter.
	J sim.Duration
	// B is the worst-case blocking from lower-priority critical sections.
	B sim.Duration
	// Priority: higher value = higher priority.
	Priority int
}

// Deadline returns the effective relative deadline.
func (t *Task) Deadline() sim.Duration {
	if t.D > 0 {
		return t.D
	}
	return t.T
}

func (t *Task) validate() error {
	if t.Name == "" {
		return fmt.Errorf("sched: task with empty name")
	}
	if t.C <= 0 || t.T <= 0 {
		return fmt.Errorf("sched: task %s: C and T must be positive", t.Name)
	}
	if t.D < 0 || t.J < 0 || t.B < 0 {
		return fmt.Errorf("sched: task %s: negative parameter", t.Name)
	}
	return nil
}

// Result is one task's analysis outcome.
type Result struct {
	Task        Task
	WCRT        sim.Duration
	Schedulable bool
	Converged   bool
}

// TotalUtilization returns sum(C/T).
func TotalUtilization(tasks []Task) float64 {
	u := 0.0
	for i := range tasks {
		u += float64(tasks[i].C) / float64(tasks[i].T)
	}
	return u
}

// ResponseTimes runs the classic recurrence
//
//	w^(k+1) = C + B + Σ_{hp} ceil((w^(k) + J_hp) / T_hp) · C_hp
//	R       = w + J
//
// for every task. The analysis is exact for independent, constrained-
// deadline (D ≤ T) fixed-priority sets on one core; sets where a task's
// level-i utilization reaches 1 are reported unschedulable.
func ResponseTimes(tasks []Task) ([]Result, error) {
	// Already-sorted inputs (the cache and the deployment layers feed
	// priority-ordered sets) analyze in place; the analysis never mutates
	// the tasks, so sharing the caller's slice is safe.
	byPrio := tasks
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].Priority < tasks[i].Priority {
			byPrio = append([]Task(nil), tasks...)
			sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].Priority > byPrio[j].Priority })
			break
		}
	}
	out := make([]Result, 0, len(byPrio))
	for i := range byPrio {
		t := &byPrio[i]
		if err := t.validate(); err != nil {
			return nil, err
		}
		uLevel := float64(t.C) / float64(t.T)
		for j := 0; j < i; j++ {
			uLevel += float64(byPrio[j].C) / float64(byPrio[j].T)
		}
		res := Result{Task: *t}
		if uLevel >= 1 {
			res.WCRT = sim.Infinity
			out = append(out, res)
			continue
		}
		w := t.C + t.B
		const maxIter = 1_000_000
		for iter := 0; iter < maxIter; iter++ {
			next := t.C + t.B
			for j := 0; j < i; j++ {
				hp := &byPrio[j]
				n := (int64(w) + int64(hp.J) + int64(hp.T) - 1) / int64(hp.T)
				next += sim.Duration(n) * hp.C
			}
			if next == w {
				res.Converged = true
				break
			}
			w = next
			if w > 1000*t.T {
				break
			}
		}
		res.WCRT = w + t.J
		res.Schedulable = res.Converged && res.WCRT <= t.Deadline()
		out = append(out, res)
	}
	return out, nil
}

// Schedulable reports whether every task meets its deadline under the
// given priorities.
func Schedulable(tasks []Task) (bool, []Result, error) {
	rs, err := ResponseTimes(tasks)
	if err != nil {
		return false, nil, err
	}
	for _, r := range rs {
		if !r.Schedulable {
			return false, rs, nil
		}
	}
	return true, rs, nil
}

// AssignDeadlineMonotonic sets priorities by ascending effective deadline
// (shortest deadline = highest priority), the optimal static assignment
// for constrained-deadline sets without jitter or blocking.
func AssignDeadlineMonotonic(tasks []Task) []Task {
	out := append([]Task(nil), tasks...)
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := out[order[a]].Deadline(), out[order[b]].Deadline()
		if da != db {
			return da < db
		}
		return out[order[a]].Name < out[order[b]].Name
	})
	for rank, idx := range order {
		out[idx].Priority = len(out) - rank
	}
	return out
}

// AssignAudsley runs Audsley's optimal priority assignment: it fills
// priority levels bottom-up, at each level picking any task that is
// schedulable there assuming all unassigned tasks are higher priority.
// It returns the assigned set and whether a feasible assignment exists.
func AssignAudsley(tasks []Task) ([]Task, bool, error) {
	out := append([]Task(nil), tasks...)
	n := len(out)
	assigned := make([]bool, n)
	for level := 1; level <= n; level++ { // 1 = lowest priority
		placed := false
		for i := 0; i < n && !placed; i++ {
			if assigned[i] {
				continue
			}
			// Candidate i at this level; all other unassigned tasks above it.
			trial := make([]Task, 0, n)
			for j := 0; j < n; j++ {
				t := out[j]
				switch {
				case j == i:
					t.Priority = level
				case assigned[j]:
					// keep already-assigned (lower) priority
				default:
					t.Priority = n + 1 // provisional: higher than candidate
				}
				trial = append(trial, t)
			}
			rs, err := ResponseTimes(trial)
			if err != nil {
				return nil, false, err
			}
			ok := true
			for _, r := range rs {
				if r.Task.Name == out[i].Name && !r.Schedulable {
					ok = false
				}
			}
			if ok {
				out[i].Priority = level
				assigned[i] = true
				placed = true
			}
		}
		if !placed {
			return out, false, nil
		}
	}
	return out, true, nil
}
