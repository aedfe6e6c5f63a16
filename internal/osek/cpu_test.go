package osek

import (
	"testing"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

func newCPU(t *testing.T) (*sim.Kernel, *CPU, *trace.Recorder) {
	t.Helper()
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	return k, NewCPU(k, "ecu", 1, rec), rec
}

func run(k *sim.Kernel, c *CPU, horizon sim.Time) {
	c.Start()
	k.Run(horizon)
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	k, c, rec := newCPU(t)
	c.MustAddTask(&Task{Name: "a", Priority: 1, WCET: sim.MS(2), Period: sim.MS(10)})
	run(k, c, sim.MS(35))
	lats := rec.Latencies("a")
	if len(lats) != 4 {
		t.Fatalf("finished %d jobs, want 4 (activations at 0,10,20,30)", len(lats))
	}
	for i, l := range lats {
		if l != sim.MS(2) {
			t.Errorf("job %d latency %v, want 2ms", i, l)
		}
	}
}

func TestPreemptionByHigherPriority(t *testing.T) {
	k, c, rec := newCPU(t)
	// Low-priority task starts at 0 and needs 10ms; high-priority task
	// arrives at 3ms needing 2ms. Low finishes at 12ms.
	c.MustAddTask(&Task{Name: "low", Priority: 1, WCET: sim.MS(10), Period: sim.MS(100)})
	c.MustAddTask(&Task{Name: "high", Priority: 2, WCET: sim.MS(2), Period: sim.MS(100), Offset: sim.MS(3)})
	run(k, c, sim.MS(50))
	if got := rec.Latencies("high"); len(got) != 1 || got[0] != sim.MS(2) {
		t.Fatalf("high latency %v, want [2ms]", got)
	}
	if got := rec.Latencies("low"); len(got) != 1 || got[0] != sim.MS(12) {
		t.Fatalf("low latency %v, want [12ms]", got)
	}
	if rec.Count(trace.Preempt, "low") != 1 {
		t.Fatalf("low preempted %d times, want 1", rec.Count(trace.Preempt, "low"))
	}
}

func TestNoPreemptionBySamePriority(t *testing.T) {
	k, c, rec := newCPU(t)
	c.MustAddTask(&Task{Name: "a", Priority: 1, WCET: sim.MS(5), Period: sim.MS(100)})
	c.MustAddTask(&Task{Name: "b", Priority: 1, WCET: sim.MS(5), Period: sim.MS(100), Offset: sim.MS(1)})
	run(k, c, sim.MS(50))
	if rec.Count(trace.Preempt, "a") != 0 {
		t.Fatal("same-priority task preempted")
	}
	// b waits for a: response = 5 - 1 + 5 = 9ms.
	if got := rec.Latencies("b"); len(got) != 1 || got[0] != sim.MS(9) {
		t.Fatalf("b latency %v, want [9ms]", got)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	k, c, rec := newCPU(t)
	// Utilization 1.5: the low-priority task must miss.
	c.MustAddTask(&Task{Name: "hog", Priority: 2, WCET: sim.MS(10), Period: sim.MS(10)})
	c.MustAddTask(&Task{Name: "victim", Priority: 1, WCET: sim.MS(5), Period: sim.MS(10)})
	run(k, c, sim.MS(100))
	if rec.Count(trace.Miss, "victim") == 0 {
		t.Fatal("overloaded victim reported no deadline misses")
	}
	if rec.Count(trace.Miss, "hog") != 0 {
		t.Fatal("highest-priority task missed unexpectedly")
	}
}

func TestBudgetEnforcementAbortsOverrun(t *testing.T) {
	k, c, rec := newCPU(t)
	// Task claims 2ms budget but demands 8ms: every job must be aborted
	// at the 2ms mark.
	c.MustAddTask(&Task{
		Name: "rogue", Priority: 2, WCET: sim.MS(2), Period: sim.MS(10),
		Budget: sim.MS(2),
		Demand: func(int64) sim.Duration { return sim.MS(8) },
	})
	c.MustAddTask(&Task{Name: "victim", Priority: 1, WCET: sim.MS(5), Period: sim.MS(10)})
	run(k, c, sim.MS(100))
	if rec.Count(trace.Abort, "rogue") != 10 {
		t.Fatalf("rogue aborted %d times, want 10", rec.Count(trace.Abort, "rogue"))
	}
	// With the rogue capped at 2ms, the victim (5ms) fits in every period.
	if rec.Count(trace.Miss, "victim") != 0 {
		t.Fatalf("victim missed %d deadlines despite budget enforcement", rec.Count(trace.Miss, "victim"))
	}
}

func TestWithoutBudgetOverrunStarvesVictim(t *testing.T) {
	k, c, rec := newCPU(t)
	c.MustAddTask(&Task{
		Name: "rogue", Priority: 2, WCET: sim.MS(2), Period: sim.MS(10),
		Demand: func(int64) sim.Duration { return sim.MS(8) },
	})
	c.MustAddTask(&Task{Name: "victim", Priority: 1, WCET: sim.MS(5), Period: sim.MS(10)})
	run(k, c, sim.MS(100))
	if rec.Count(trace.Miss, "victim") == 0 {
		t.Fatal("victim unaffected by unconstrained overrun; isolation experiment would be vacuous")
	}
}

func TestPriorityCeilingBlocksForCriticalSection(t *testing.T) {
	k, c, rec := newCPU(t)
	res := &Resource{Name: "adc", Ceiling: 3}
	// Low-priority task holds the resource for its whole 4ms body.
	// High-priority (prio 2 < ceiling 3) task arriving mid-section is
	// blocked until the section ends.
	c.MustAddTask(&Task{Name: "low", Priority: 1, WCET: sim.MS(4), Period: sim.MS(100), Resource: res})
	c.MustAddTask(&Task{Name: "high", Priority: 2, WCET: sim.MS(1), Period: sim.MS(100), Offset: sim.MS(1)})
	run(k, c, sim.MS(50))
	// high waits until low finishes at 4ms, runs 4..5ms: response 4ms.
	if got := rec.Latencies("high"); len(got) != 1 || got[0] != sim.MS(4) {
		t.Fatalf("high latency %v, want [4ms] (blocked by ceiling)", got)
	}
	if rec.Count(trace.Preempt, "low") != 0 {
		t.Fatal("resource holder was preempted despite ceiling")
	}
}

func TestActivationQueueing(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "srv", Priority: 1, WCET: sim.MS(3), MaxQueued: 2}
	c.MustAddTask(task)
	c.Start()
	// Three activations at t=0: one runs, two queue.
	k.At(0, func() {
		c.Activate(task)
		c.Activate(task)
		c.Activate(task)
		if c.Activate(task) {
			t.Error("fourth activation should be dropped (queue limit 2)")
		}
	})
	k.Run(sim.MS(20))
	if got := rec.Count(trace.Finish, "srv"); got != 3 {
		t.Fatalf("finished %d jobs, want 3", got)
	}
	if rec.Count(trace.Drop, "srv") != 1 {
		t.Fatal("dropped activation not recorded")
	}
	// Queued jobs keep their original activation time: latencies 3,6,9ms.
	lats := rec.Latencies("srv")
	want := []sim.Duration{sim.MS(3), sim.MS(6), sim.MS(9)}
	for i, w := range want {
		if lats[i] != w {
			t.Errorf("job %d latency %v, want %v", i, lats[i], w)
		}
	}
}

func TestCPUSpeedScalesDemand(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	c := NewCPU(k, "fast", 2, rec)
	c.MustAddTask(&Task{Name: "a", Priority: 1, WCET: sim.MS(4), Period: sim.MS(100)})
	run(k, c, sim.MS(50))
	if got := rec.Latencies("a"); len(got) != 1 || got[0] != sim.MS(2) {
		t.Fatalf("latency on speed-2 core %v, want [2ms]", got)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k, c, _ := newCPU(t)
	c.MustAddTask(&Task{Name: "a", Priority: 1, WCET: sim.MS(2), Period: sim.MS(10)})
	run(k, c, sim.MS(100))
	u := c.Utilization()
	if u < 0.19 || u > 0.21 {
		t.Fatalf("utilization %v, want ~0.2", u)
	}
}

func TestEventTriggeredTaskNoDeadlineByDefault(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "evt", Priority: 1, WCET: sim.MS(1)}
	c.MustAddTask(task)
	c.Start()
	k.At(sim.MS(5), func() { c.Activate(task) })
	k.Run(sim.MS(50))
	if rec.Count(trace.Finish, "evt") != 1 {
		t.Fatal("event-triggered task did not run")
	}
	if rec.Count(trace.Miss, "evt") != 0 {
		t.Fatal("no-deadline task reported a miss")
	}
}

func TestExplicitDeadlineShorterThanPeriod(t *testing.T) {
	k, c, rec := newCPU(t)
	c.MustAddTask(&Task{Name: "hard", Priority: 1, WCET: sim.MS(6), Period: sim.MS(20), Deadline: sim.MS(5)})
	run(k, c, sim.MS(60))
	if rec.Count(trace.Miss, "hard") != 3 {
		t.Fatalf("missed %d, want 3 (every job: WCET 6ms > deadline 5ms)", rec.Count(trace.Miss, "hard"))
	}
}

func TestAddTaskValidation(t *testing.T) {
	_, c, _ := newCPU(t)
	if err := c.AddTask(&Task{Name: "", WCET: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.AddTask(&Task{Name: "x"}); err == nil {
		t.Fatal("zero demand accepted")
	}
	if err := c.AddTask(&Task{Name: "ok", WCET: 1, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTask(&Task{Name: "ok", WCET: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	c.Start()
	if err := c.AddTask(&Task{Name: "late", WCET: 1}); err == nil {
		t.Fatal("AddTask after Start accepted")
	}
}

func TestJobLifecycleHooks(t *testing.T) {
	k, c, _ := newCPU(t)
	var started, finished, aborted int
	c.MustAddTask(&Task{
		Name: "hooked", Priority: 1, WCET: sim.MS(1), Period: sim.MS(10),
		OnStart:  func(int64) { started++ },
		OnFinish: func(int64) { finished++ },
		OnAbort:  func(int64) { aborted++ },
	})
	run(k, c, sim.MS(35))
	if started != 4 || finished != 4 || aborted != 0 {
		t.Fatalf("hooks: started=%d finished=%d aborted=%d, want 4/4/0", started, finished, aborted)
	}
}

func TestResponseTimeMatchesClassicRTA(t *testing.T) {
	// Classic example: three tasks, rate-monotonic priorities.
	// T1: C=1, T=4 (prio 3); T2: C=2, T=8 (prio 2); T3: C=3, T=16 (prio 1).
	// RTA: R1=1, R2=3, R3=3+1+... iterate: R3 = 3 + ceil(R3/4)*1 + ceil(R3/8)*2
	//   R3=3 -> 3+1+2=6 -> 3+2+2=7 -> 3+2+2=7. Worst response: R3=7.
	k, c, rec := newCPU(t)
	c.MustAddTask(&Task{Name: "t1", Priority: 3, WCET: sim.MS(1), Period: sim.MS(4)})
	c.MustAddTask(&Task{Name: "t2", Priority: 2, WCET: sim.MS(2), Period: sim.MS(8)})
	c.MustAddTask(&Task{Name: "t3", Priority: 1, WCET: sim.MS(3), Period: sim.MS(16)})
	run(k, c, sim.MS(160))
	st := trace.Summarize(rec, "t3")
	if st.Max != sim.MS(7) {
		t.Fatalf("t3 worst response %v, want 7ms (critical instant)", st.Max)
	}
	if st.MissCount != 0 {
		t.Fatal("schedulable set reported misses")
	}
}

func TestDeterministicScheduleAcrossRuns(t *testing.T) {
	exec := func() []trace.Record {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		c := NewCPU(k, "ecu", 1, rec)
		r := sim.NewRand(99)
		for i := 0; i < 8; i++ {
			c.MustAddTask(&Task{
				Name:     string(rune('a' + i)),
				Priority: i,
				WCET:     r.Range(sim.US(100), sim.MS(2)),
				Period:   r.Range(sim.MS(5), sim.MS(50)),
			})
		}
		c.Start()
		k.Run(sim.MS(500))
		return rec.Records
	}
	a, b := exec(), exec()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestContextSwitchOverhead(t *testing.T) {
	run := func(ctx sim.Duration) (sim.Duration, float64) {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		c := NewCPU(k, "ecu", 1, rec)
		c.CtxSwitch = ctx
		// High-priority task preempts the low one twice per job.
		c.MustAddTask(&Task{Name: "hi", Priority: 2, WCET: sim.MS(1), Period: sim.MS(4)})
		c.MustAddTask(&Task{Name: "lo", Priority: 1, WCET: sim.MS(5), Period: sim.MS(20)})
		c.Start()
		k.Run(sim.MS(200))
		return trace.Compute(rec.Latencies("lo")).Max, c.Utilization()
	}
	noOv, uPlain := run(0)
	withOv, uCtx := run(sim.US(50))
	if withOv <= noOv {
		t.Fatalf("context-switch cost did not extend response: %v vs %v", withOv, noOv)
	}
	if uCtx <= uPlain {
		t.Fatalf("context-switch cost did not raise utilization: %v vs %v", uCtx, uPlain)
	}
}

func TestKillAbortsCurrentJobAndQueue(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "a", Priority: 1, WCET: sim.MS(4), Period: sim.MS(10), MaxQueued: 2}
	var finished, aborted int
	task.OnFinish = func(int64) { finished++ }
	task.OnAbort = func(int64) { aborted++ }
	c.MustAddTask(task)
	// Kill mid-job at 2ms: the in-flight job dies, no OnAbort fires, and
	// the next periodic release (10ms) runs normally.
	k.At(sim.MS(2), func() { c.Kill(task, "restart") })
	run(k, c, sim.MS(25))
	if aborted != 0 {
		t.Fatalf("Kill fired OnAbort %d times; recovery kills must not report faults", aborted)
	}
	if finished != 2 {
		t.Fatalf("finished %d jobs, want 2 (releases at 10ms and 20ms)", finished)
	}
	if rec.Count(trace.Abort, "a") != 1 {
		t.Fatalf("abort records = %d, want 1", rec.Count(trace.Abort, "a"))
	}
	if got := rec.BySource("a"); got[len(got)-1].Kind != trace.Finish {
		t.Fatalf("last record %v, want finish", got[len(got)-1].Kind)
	}
}

func TestKillWithoutCurrentJobIsNoop(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "a", Priority: 1, WCET: sim.MS(1), Period: sim.MS(10), Offset: sim.MS(5)}
	c.MustAddTask(task)
	killed := true
	k.At(sim.MS(2), func() { killed = c.Kill(task, "restart") })
	run(k, c, sim.MS(20))
	if killed {
		t.Fatal("Kill reported a job before any was released")
	}
	if rec.Count(trace.Abort, "a") != 0 {
		t.Fatal("no-op kill produced an abort record")
	}
}

func TestSuspendShedsActivationsAndResumeRestores(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "a", Priority: 1, WCET: sim.MS(1), Period: sim.MS(10)}
	c.MustAddTask(task)
	k.At(sim.MS(15), func() { c.SetSuspended(task, true) })
	k.At(sim.MS(55), func() { c.SetSuspended(task, false) })
	run(k, c, sim.MS(95))
	// Finishes: releases at 0,10 then 60..90 => 2 + 4 = 6.
	if got := rec.Count(trace.Finish, "a"); got != 6 {
		t.Fatalf("finished %d jobs, want 6", got)
	}
	// Releases at 20,30,40,50 shed with an auditable drop record.
	if got := rec.Count(trace.Drop, "a"); got != 4 {
		t.Fatalf("dropped %d activations, want 4", got)
	}
	if task.Suspended() {
		t.Fatal("task still reports suspended after resume")
	}
}

func TestSuspendKillsInFlightJob(t *testing.T) {
	k, c, rec := newCPU(t)
	task := &Task{Name: "a", Priority: 1, WCET: sim.MS(8), Period: sim.MS(20)}
	c.MustAddTask(task)
	k.At(sim.MS(3), func() { c.SetSuspended(task, true) })
	run(k, c, sim.MS(15))
	if rec.Count(trace.Finish, "a") != 0 {
		t.Fatal("suspended task still finished a job")
	}
	if rec.Count(trace.Abort, "a") != 1 {
		t.Fatal("in-flight job not killed on suspend")
	}
}
