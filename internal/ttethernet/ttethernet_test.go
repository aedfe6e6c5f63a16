package ttethernet

import (
	"testing"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// 100 Mbit/s, 1ms cycle.
func cfg100M() Config { return Config{BitRate: 100_000_000, Cycle: sim.MS(1)} }

func TestConfigValidate(t *testing.T) {
	if (Config{BitRate: 0, Cycle: 1}).Validate() == nil {
		t.Fatal("zero bit rate accepted")
	}
	if (Config{BitRate: 1, Cycle: 0}).Validate() == nil {
		t.Fatal("zero cycle accepted")
	}
	if cfg100M().Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

func TestFrameTimeMinimumSize(t *testing.T) {
	c := cfg100M()
	// 84 bytes on the wire at 100 Mbit/s = 6.72us; smaller frames pad.
	if got := c.frameTime(10); got != c.frameTime(84) {
		t.Fatal("sub-minimum frame not padded")
	}
	if got := c.frameTime(84); got != sim.Duration(84*8*10) {
		t.Fatalf("frame time %v, want 6.72us", got)
	}
}

func TestStreamValidation(t *testing.T) {
	k := sim.NewKernel()
	sw := MustNewSwitch(k, cfg100M(), nil)
	bad := []*Stream{
		{Name: "", Class: TT, Bytes: 100, Egress: "p1"},
		{Name: "big", Class: TT, Bytes: 2000, Egress: "p1"},
		{Name: "noport", Class: TT, Bytes: 100},
		{Name: "slot", Class: TT, Bytes: 100, Egress: "p1", Slot: sim.MS(2)},
		{Name: "rc", Class: RC, Bytes: 100, Egress: "p1"}, // no contract
	}
	for i, st := range bad {
		if sw.AddStream(st) == nil {
			t.Errorf("bad stream %d accepted", i)
		}
	}
	sw.MustAddStream(&Stream{Name: "ok", Class: TT, Bytes: 100, Egress: "p1", Period: sim.MS(1)})
	if sw.AddStream(&Stream{Name: "ok", Class: BE, Bytes: 100, Egress: "p1"}) == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestTTSlotOverlapRejected(t *testing.T) {
	k := sim.NewKernel()
	sw := MustNewSwitch(k, cfg100M(), nil)
	sw.MustAddStream(&Stream{Name: "a", Class: TT, Bytes: 100, Egress: "p1", Slot: 0, Period: sim.MS(1)})
	if sw.AddStream(&Stream{Name: "b", Class: TT, Bytes: 100, Egress: "p1", Slot: sim.US(3), Period: sim.MS(1)}) == nil {
		t.Fatal("overlapping TT slots on one port accepted")
	}
	// Same slot on a different egress port is fine.
	if err := sw.AddStream(&Stream{Name: "c", Class: TT, Bytes: 100, Egress: "p2", Slot: 0, Period: sim.MS(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestTTDeterministicLatency(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	sw := MustNewSwitch(k, cfg100M(), rec)
	st := &Stream{Name: "tt", Class: TT, Bytes: 100, Egress: "p1", Slot: sim.US(100), Period: sim.MS(1)}
	sw.MustAddStream(st)
	sw.Start()
	k.Run(sim.MS(50))
	s := trace.Compute(rec.Latencies("tt"))
	if s.N < 49 {
		t.Fatalf("delivered %d, want ~50", s.N)
	}
	if s.Jitter != 0 {
		t.Fatalf("TT jitter %v, want 0", s.Jitter)
	}
	// Queued at cycle start, slot at 100us, wire 8us: latency 108us.
	want := sim.US(100) + cfg100M().frameTime(100)
	if s.Max != want {
		t.Fatalf("TT latency %v, want %v", s.Max, want)
	}
}

func TestTTUnaffectedByBELoad(t *testing.T) {
	measure := func(withBE bool) sim.Duration {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		sw := MustNewSwitch(k, cfg100M(), rec)
		sw.MustAddStream(&Stream{Name: "tt", Class: TT, Bytes: 100, Egress: "p1", Slot: sim.US(500), Period: sim.MS(1)})
		if withBE {
			// Saturating best-effort traffic on the same port.
			sw.MustAddStream(&Stream{Name: "be", Class: BE, Bytes: 1500, Egress: "p1", Period: sim.US(100)})
		}
		sw.Start()
		k.Run(sim.MS(50))
		return trace.Compute(rec.Latencies("tt")).Max
	}
	if quiet, loaded := measure(false), measure(true); quiet != loaded {
		t.Fatalf("BE load moved TT latency: %v -> %v", quiet, loaded)
	}
}

func TestRCPolicing(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	sw := MustNewSwitch(k, cfg100M(), rec)
	st := &Stream{Name: "rc", Class: RC, Bytes: 200, Egress: "p1", MinInterval: sim.MS(1)}
	sw.MustAddStream(st)
	sw.Start()
	// Three frames: t=0 ok, t=0.2ms policed (below contract), t=1.5ms ok.
	k.At(0, func() { sw.Queue(st, nil) })
	k.At(sim.US(200), func() { sw.Queue(st, nil) })
	k.At(sim.US(1500), func() { sw.Queue(st, nil) })
	k.Run(sim.MS(10))
	if sw.Policed() != 1 {
		t.Fatalf("policed %d, want 1", sw.Policed())
	}
	if got := rec.Count(trace.Finish, "rc"); got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestRCPrecedesBE(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	sw := MustNewSwitch(k, cfg100M(), rec)
	rc := &Stream{Name: "rc", Class: RC, Bytes: 500, Egress: "p1", MinInterval: sim.MS(1)}
	be := &Stream{Name: "be", Class: BE, Bytes: 500, Egress: "p1"}
	sw.MustAddStream(rc)
	sw.MustAddStream(be)
	sw.Start()
	// Both queued at the same instant: RC must go first.
	k.At(0, func() { sw.Queue(be, nil); sw.Queue(rc, nil) })
	k.Run(sim.MS(5))
	rcLat := trace.Compute(rec.Latencies("rc")).Max
	beLat := trace.Compute(rec.Latencies("be")).Max
	if rcLat >= beLat {
		t.Fatalf("RC (%v) did not precede BE (%v)", rcLat, beLat)
	}
}

func TestBEWaitsForTTGap(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	cfg := cfg100M()
	sw := MustNewSwitch(k, cfg, rec)
	// TT reservation right at the start of every cycle.
	tt := &Stream{Name: "tt", Class: TT, Bytes: 1500, Egress: "p1", Slot: 0, Period: sim.MS(1)}
	be := &Stream{Name: "be", Class: BE, Bytes: 100, Egress: "p1"}
	sw.MustAddStream(tt)
	sw.MustAddStream(be)
	sw.Start()
	// BE frame queued exactly at cycle start collides with the TT
	// reservation and must start after it.
	k.At(sim.MS(1), func() { sw.Queue(be, nil) })
	k.Run(sim.MS(5))
	ttWire := cfg.frameTime(1500)
	beLat := trace.Compute(rec.Latencies("be")).Max
	want := ttWire + cfg.frameTime(100)
	if beLat != want {
		t.Fatalf("BE latency %v, want %v (deferred past TT reservation)", beLat, want)
	}
}

func TestTTWCRTBoundsSimulation(t *testing.T) {
	cfg := cfg100M()
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	sw := MustNewSwitch(k, cfg, rec)
	// Non-harmonic period: queueing phase sweeps the whole cycle.
	st := &Stream{Name: "tt", Class: TT, Bytes: 300, Egress: "p1", Slot: sim.US(200), Period: sim.US(1310)}
	sw.MustAddStream(st)
	sw.Start()
	k.Run(sim.Second)
	// The frame just missed its slot and waits one full cycle, then
	// spends its wire time on the link.
	bound := cfg.Cycle + cfg.frameTime(st.Bytes)
	if got := trace.Compute(rec.Latencies("tt")).Max; got > bound {
		t.Fatalf("simulated %v exceeds TT WCRT bound %v", got, bound)
	}
}

func TestClassString(t *testing.T) {
	if TT.String() != "TT" || RC.String() != "RC" || BE.String() != "BE" {
		t.Fatal("class names")
	}
}
