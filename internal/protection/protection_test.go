package protection

import (
	"testing"

	"autorte/internal/osek"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Compile-time checks: protection mechanisms satisfy osek.Throttle.
var (
	_ osek.Throttle = (*Server)(nil)
	_ osek.Throttle = (*Partition)(nil)
)

func setup() (*sim.Kernel, *osek.CPU, *trace.Recorder) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	return k, osek.NewCPU(k, "ecu", 1, rec), rec
}

// newServer is NewServer that fails the test on error.
func newServer(t *testing.T, name string, kind ServerKind, budget, period sim.Duration) *Server {
	t.Helper()
	s, err := NewServer(name, kind, budget, period)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer("s", Deferrable, 0, sim.MS(10)); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewServer("s", Deferrable, sim.MS(11), sim.MS(10)); err == nil {
		t.Fatal("budget > period accepted")
	}
	s := newServer(t, "s", Deferrable, sim.MS(2), sim.MS(10))
	if u := s.Utilization(); u != 0.2 {
		t.Fatalf("utilization %v, want 0.2", u)
	}
}

func TestDeferrableServerCapsConsumption(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "srvA", Deferrable, sim.MS(2), sim.MS(10))
	// A greedy served task wants 100% CPU at top priority; the server must
	// cap it at 20%, letting the lower-priority victim run.
	c.MustAddTask(&osek.Task{
		Name: "greedy", Priority: 10, WCET: sim.MS(10), Period: sim.MS(10),
		Throttle: srv,
	})
	c.MustAddTask(&osek.Task{Name: "victim", Priority: 1, WCET: sim.MS(5), Period: sim.MS(10)})
	c.Start()
	k.Run(sim.MS(200))
	if rec.Count(trace.Miss, "victim") != 0 {
		t.Fatalf("victim missed %d deadlines; server failed to isolate", rec.Count(trace.Miss, "victim"))
	}
	// The greedy task gets only 2ms per 10ms period: each 10ms job needs
	// five periods, so at most 4 jobs complete in 200ms.
	if got := rec.Count(trace.Finish, "greedy"); got < 3 || got > 4 {
		t.Fatalf("greedy finished %d jobs, want 3..4 (throughput capped at 20%%)", got)
	}
	if rec.Count(trace.Drop, "greedy") == 0 {
		t.Fatal("greedy overload produced no dropped activations")
	}
	util := c.Utilization()
	if util < 0.65 || util > 0.75 {
		t.Fatalf("cpu utilization %v, want ~0.7 (0.2 server + 0.5 victim)", util)
	}
}

func TestDeferrableServerWellBehavedTaskUnaffected(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "srvA", Deferrable, sim.MS(3), sim.MS(10))
	// Task demand (1ms/10ms) fits comfortably in the reservation.
	c.MustAddTask(&osek.Task{
		Name: "good", Priority: 10, WCET: sim.MS(1), Period: sim.MS(10),
		Throttle: srv,
	})
	c.Start()
	k.Run(sim.MS(100))
	st := trace.Summarize(rec, "good")
	if st.MissCount != 0 || st.N != 10 {
		t.Fatalf("well-behaved served task disturbed: %+v", st)
	}
	if st.Max != sim.MS(1) {
		t.Fatalf("served task response %v, want 1ms (budget never exhausted)", st.Max)
	}
}

func TestDeferrableBudgetCarriesWithinPeriod(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "s", Deferrable, sim.MS(2), sim.MS(10))
	tsk := &osek.Task{Name: "evt", Priority: 5, WCET: sim.MS(2)}
	tsk.Throttle = srv
	c.MustAddTask(tsk)
	c.Start()
	// Activation late in the period: deferrable keeps its budget, so the
	// job runs immediately at t=8ms and finishes at 10ms.
	k.At(sim.MS(8), func() { c.Activate(tsk) })
	k.Run(sim.MS(30))
	lats := rec.Latencies("evt")
	if len(lats) != 1 || lats[0] != sim.MS(2) {
		t.Fatalf("deferrable late-arrival latency %v, want [2ms]", lats)
	}
}

func TestPollingServerDropsIdleBudget(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "s", Polling, sim.MS(2), sim.MS(10))
	tsk := &osek.Task{Name: "evt", Priority: 5, WCET: sim.MS(2)}
	tsk.Throttle = srv
	c.MustAddTask(tsk)
	c.Start()
	// Same late arrival: the polling server discarded its budget when
	// idle, so the job waits for the replenishment at t=10ms and runs
	// 10–12ms: latency 4ms.
	k.At(sim.MS(8), func() { c.Activate(tsk) })
	k.Run(sim.MS(30))
	lats := rec.Latencies("evt")
	if len(lats) != 1 || lats[0] != sim.MS(4) {
		t.Fatalf("polling late-arrival latency %v, want [4ms]", lats)
	}
}

func TestSporadicServerReplenishesConsumedChunks(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "s", Sporadic, sim.MS(2), sim.MS(10))
	tsk := &osek.Task{Name: "evt", Priority: 5, WCET: sim.MS(1), MaxQueued: 8}
	tsk.Throttle = srv
	c.MustAddTask(tsk)
	c.Start()
	// Two 1ms jobs back to back consume the 2ms budget by t=2.
	k.At(0, func() { c.Activate(tsk); c.Activate(tsk) })
	// Third job at t=3: budget is empty; the first chunk (consumed from 0)
	// replenishes at 10ms, so the job runs 10–11ms.
	k.At(sim.MS(3), func() { c.Activate(tsk) })
	k.Run(sim.MS(30))
	lats := rec.Latencies("evt")
	if len(lats) != 3 {
		t.Fatalf("finished %d jobs, want 3", len(lats))
	}
	if lats[0] != sim.MS(1) || lats[1] != sim.MS(2) {
		t.Fatalf("first two latencies %v, want [1ms 2ms ...]", lats)
	}
	if lats[2] != sim.MS(8) {
		t.Fatalf("post-exhaustion latency %v, want 8ms (replenish at 10ms)", lats[2])
	}
}

func TestServerSharedByTwoTasks(t *testing.T) {
	k, c, rec := setup()
	srv := newServer(t, "shared", Deferrable, sim.MS(4), sim.MS(10))
	c.MustAddTask(&osek.Task{Name: "a", Priority: 6, WCET: sim.MS(2), Period: sim.MS(10), Throttle: srv})
	c.MustAddTask(&osek.Task{Name: "b", Priority: 5, WCET: sim.MS(2), Period: sim.MS(10), Throttle: srv})
	c.Start()
	k.Run(sim.MS(100))
	if rec.Count(trace.Miss, "a")+rec.Count(trace.Miss, "b") != 0 {
		t.Fatal("two tasks fitting the shared budget missed deadlines")
	}
	if got := rec.Count(trace.Finish, "a"); got != 10 {
		t.Fatalf("a finished %d, want 10", got)
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(0, nil); err == nil {
		t.Fatal("zero major frame accepted")
	}
	if _, err := NewTable(sim.MS(10), []Window{{Partition: "p", Start: sim.MS(8), Length: sim.MS(4)}}); err == nil {
		t.Fatal("window past major frame accepted")
	}
	if _, err := NewTable(sim.MS(10), []Window{
		{Partition: "a", Start: 0, Length: sim.MS(5)},
		{Partition: "b", Start: sim.MS(4), Length: sim.MS(2)},
	}); err == nil {
		t.Fatal("overlapping windows accepted")
	}
	if _, err := NewTable(sim.MS(10), []Window{{Partition: "", Start: 0, Length: sim.MS(1)}}); err == nil {
		t.Fatal("empty partition name accepted")
	}
	tab, err := NewTable(sim.MS(10), []Window{
		{Partition: "a", Start: 0, Length: sim.MS(4)},
		{Partition: "b", Start: sim.MS(4), Length: sim.MS(6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Partition("ghost"); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if u := tab.PartitionUtilization("b"); u != 0.6 {
		t.Fatalf("partition b utilization %v, want 0.6", u)
	}
}

func TestTDMAPartitionIsolation(t *testing.T) {
	k, c, rec := setup()
	tab, err := NewTable(sim.MS(10), []Window{
		{Partition: "supplierA", Start: 0, Length: sim.MS(5)},
		{Partition: "supplierB", Start: sim.MS(5), Length: sim.MS(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// supplierA's task misbehaves (always overruns); supplierB's task has
	// period 10ms, WCET 3ms, deadline 10ms and only its own window.
	c.MustAddTask(&osek.Task{
		Name: "rogueA", Priority: 10, WCET: sim.MS(5), Period: sim.MS(10),
		Demand:   func(int64) sim.Duration { return sim.MS(50) },
		Throttle: tab.MustPartition("supplierA"),
	})
	c.MustAddTask(&osek.Task{
		Name: "taskB", Priority: 10, WCET: sim.MS(3), Period: sim.MS(10),
		Throttle: tab.MustPartition("supplierB"),
	})
	c.Start()
	k.Run(sim.MS(200))
	if rec.Count(trace.Miss, "taskB") != 0 {
		t.Fatalf("partitioned task missed %d deadlines despite TT isolation", rec.Count(trace.Miss, "taskB"))
	}
	// taskB is released at frame start but can only run in [5,10): its
	// response time is deterministic at 8ms — jitter zero.
	st := trace.Summarize(rec, "taskB")
	if st.Jitter != 0 {
		t.Fatalf("TT task jitter %v, want 0 (deterministic window)", st.Jitter)
	}
	if st.Max != sim.MS(8) {
		t.Fatalf("TT task response %v, want 8ms", st.Max)
	}
}

func TestTDMAWindowBoundaryPreemption(t *testing.T) {
	k, c, rec := setup()
	tab, _ := NewTable(sim.MS(10), []Window{
		{Partition: "a", Start: 0, Length: sim.MS(2)},
		{Partition: "b", Start: sim.MS(2), Length: sim.MS(8)},
	})
	// Task in partition a needs 3ms: 2ms in frame 0, 1ms in frame 1;
	// it finishes at 10+1 = 11ms.
	c.MustAddTask(&osek.Task{
		Name: "slow", Priority: 1, WCET: sim.MS(3), Period: sim.MS(40),
		Throttle: tab.MustPartition("a"),
	})
	c.Start()
	k.Run(sim.MS(40))
	lats := rec.Latencies("slow")
	if len(lats) != 1 || lats[0] != sim.MS(11) {
		t.Fatalf("window-crossing latency %v, want [11ms]", lats)
	}
}

func TestServerKindString(t *testing.T) {
	if Deferrable.String() != "deferrable" || Polling.String() != "polling" || Sporadic.String() != "sporadic" {
		t.Fatal("server kind names wrong")
	}
}
