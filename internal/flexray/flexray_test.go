package flexray

import (
	"testing"
	"testing/quick"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// cfgSmall: 4 static slots of 200us, 20 minislots of 10us, 100us NIT:
// cycle = 800 + 200 + 100 = 1100us.
func cfgSmall() Config {
	return Config{
		StaticSlots: 4, SlotLength: sim.US(200),
		Minislots: 20, MinislotLength: sim.US(10),
		NIT: sim.US(100),
	}
}

func TestConfigValidateAndCycleLength(t *testing.T) {
	c := cfgSmall()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.CycleLength() != sim.US(1100) {
		t.Fatalf("cycle length %v, want 1100us", c.CycleLength())
	}
	if c.DynamicStart() != sim.US(800) {
		t.Fatalf("dynamic start %v, want 800us", c.DynamicStart())
	}
	if (Config{}).Validate() == nil {
		t.Fatal("empty cycle accepted")
	}
	if (Config{StaticSlots: 2}).Validate() == nil {
		t.Fatal("zero slot length accepted")
	}
	if (Config{StaticSlots: 1, SlotLength: 1, NIT: -1}).Validate() == nil {
		t.Fatal("negative NIT accepted")
	}
}

func TestFrameValidation(t *testing.T) {
	k := sim.NewKernel()
	b := MustNewBus(k, "fr0", cfgSmall(), nil)
	cases := []*Frame{
		{Name: "", Kind: Static, SlotID: 1},
		{Name: "s", Kind: Static, SlotID: 0},
		{Name: "s", Kind: Static, SlotID: 9},
		{Name: "s", Kind: Static, SlotID: 1, Repetition: 3},
		{Name: "s", Kind: Static, SlotID: 1, Repetition: 2, Base: 2},
		{Name: "d", Kind: Dynamic, FrameID: 2, Length: 1},  // FrameID within static range
		{Name: "d", Kind: Dynamic, FrameID: 9, Length: 0},  // zero length
		{Name: "d", Kind: Dynamic, FrameID: 9, Length: 99}, // longer than segment
	}
	for i, f := range cases {
		if err := b.AddFrame(f); err == nil {
			t.Errorf("case %d: invalid frame accepted", i)
		}
	}
}

func TestStaticSlotCollision(t *testing.T) {
	k := sim.NewKernel()
	b := MustNewBus(k, "fr0", cfgSmall(), nil)
	b.MustAddFrame(&Frame{Name: "a", Kind: Static, SlotID: 1, Repetition: 2, Base: 0, Period: sim.MS(5)})
	// Same slot, disjoint cycles: allowed.
	if err := b.AddFrame(&Frame{Name: "b", Kind: Static, SlotID: 1, Repetition: 2, Base: 1, Period: sim.MS(5)}); err != nil {
		t.Fatalf("disjoint slot multiplexing rejected: %v", err)
	}
	// Overlapping pattern: rejected.
	if err := b.AddFrame(&Frame{Name: "c", Kind: Static, SlotID: 1, Repetition: 4, Base: 0}); err == nil {
		t.Fatal("colliding slot accepted")
	}
}

func TestStaticFrameDeterministicLatency(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	// Slot 2, every cycle; payload queued at cycle start rides this
	// cycle's slot 2, delivered at slot end = 400us into the cycle.
	f := &Frame{Name: "wheel", Kind: Static, SlotID: 2, Repetition: 1, Period: sim.US(1100)}
	b.MustAddFrame(f)
	b.Start()
	k.Run(sim.MS(22))
	st := trace.Compute(rec.Latencies("wheel"))
	if st.N < 19 {
		t.Fatalf("delivered %d, want ~20", st.N)
	}
	if st.Jitter != 0 {
		t.Fatalf("static frame jitter %v, want 0 (temporal isolation)", st.Jitter)
	}
	if st.Max != sim.US(400) {
		t.Fatalf("latency %v, want 400us (slot 2 end)", st.Max)
	}
}

func TestStaticLatencyUnaffectedByDynamicLoad(t *testing.T) {
	// The E4 property: adding heavy dynamic traffic must not move static
	// frame latencies at all.
	measure := func(withLoad bool) trace.Stats {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		b := MustNewBus(k, "fr0", cfgSmall(), rec)
		b.MustAddFrame(&Frame{Name: "crit", Kind: Static, SlotID: 1, Repetition: 1, Period: sim.US(1100)})
		if withLoad {
			for i := 0; i < 5; i++ {
				b.MustAddFrame(&Frame{
					Name: "noise" + string(rune('0'+i)), Kind: Dynamic,
					FrameID: 5 + i, Length: 4, Period: sim.US(1100),
				})
			}
		}
		b.Start()
		k.Run(sim.MS(50))
		return trace.Compute(rec.Latencies("crit"))
	}
	quiet, loaded := measure(false), measure(true)
	if quiet.Max != loaded.Max || quiet.Jitter != loaded.Jitter {
		t.Fatalf("static latency changed under dynamic load: quiet %v loaded %v", quiet, loaded)
	}
}

func TestSlotMultiplexingByRepetition(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	cyc := cfgSmall().CycleLength()
	b.MustAddFrame(&Frame{Name: "even", Kind: Static, SlotID: 1, Repetition: 2, Base: 0, Period: 2 * cyc})
	b.MustAddFrame(&Frame{Name: "odd", Kind: Static, SlotID: 1, Repetition: 2, Base: 1, Period: 2 * cyc, Offset: cyc})
	b.Start()
	k.Run(20 * cyc)
	if n := rec.Count(trace.Finish, "even"); n < 9 {
		t.Fatalf("even delivered %d, want ~10", n)
	}
	if n := rec.Count(trace.Finish, "odd"); n < 9 {
		t.Fatalf("odd delivered %d, want ~9", n)
	}
	if rec.Count(trace.Miss, "even")+rec.Count(trace.Miss, "odd") != 0 {
		t.Fatal("multiplexed frames missed deadlines")
	}
}

func TestDynamicArbitrationByFrameID(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	hi := &Frame{Name: "hi", Kind: Dynamic, FrameID: 5, Length: 4}
	lo := &Frame{Name: "lo", Kind: Dynamic, FrameID: 6, Length: 4}
	b.MustAddFrame(hi)
	b.MustAddFrame(lo)
	b.Start()
	k.At(0, func() { b.Queue(lo); b.Queue(hi) })
	k.Run(sim.MS(3))
	// Dynamic segment starts at 800us; hi takes minislots 0-3 (ends
	// 840us), lo takes 4-7 (ends 880us).
	hiLat := rec.Latencies("hi")
	loLat := rec.Latencies("lo")
	if len(hiLat) != 1 || hiLat[0] != sim.US(840) {
		t.Fatalf("hi latency %v, want [840us]", hiLat)
	}
	if len(loLat) != 1 || loLat[0] != sim.US(880) {
		t.Fatalf("lo latency %v, want [880us]", loLat)
	}
}

func TestDynamicFrameDeferredWhenSegmentFull(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	big := &Frame{Name: "big", Kind: Dynamic, FrameID: 5, Length: 18}
	tail := &Frame{Name: "tail", Kind: Dynamic, FrameID: 6, Length: 4, Deadline: sim.MS(10)}
	b.MustAddFrame(big)
	b.MustAddFrame(tail)
	b.Start()
	k.At(0, func() { b.Queue(big); b.Queue(tail) })
	k.Run(sim.MS(4))
	// big occupies 18 of 20 minislots; tail (4) does not fit in cycle 0
	// and transmits in cycle 1's dynamic segment: 1100 + 800 + ~minislots.
	tailLat := rec.Latencies("tail")
	if len(tailLat) != 1 {
		t.Fatalf("tail delivered %d times, want 1", len(tailLat))
	}
	if tailLat[0] <= sim.US(1100) {
		t.Fatalf("tail latency %v; should have waited for next cycle", tailLat[0])
	}
	// In cycle 1, big is gone: tail starts after skipping... it is the
	// only pending frame, taking minislots 0-3: delivered 1100+800+40.
	if want := sim.US(1940); tailLat[0] != want {
		t.Fatalf("tail latency %v, want %v", tailLat[0], want)
	}
}

func TestMutedSenderStaticAndDynamic(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	s := &Frame{Name: "s", Kind: Static, SlotID: 1, Repetition: 1, Period: sim.US(1100)}
	s.SetSender("node1")
	b.MustAddFrame(s)
	b.Mute = map[string]bool{"node1": true}
	b.Start()
	k.Run(sim.MS(10))
	if rec.Count(trace.Finish, "s") != 0 {
		t.Fatal("muted sender delivered")
	}
}

func TestStaticWCRTBoundsSimulation(t *testing.T) {
	cfg := cfgSmall()
	// A 4 ms deadline on the 1.1 ms cycle synthesizes repetition 2. The
	// period is deliberately not harmonic with the cycle so queuing phase
	// drifts across the whole cycle.
	as, err := Synthesize(cfg, []Signal{{Name: "drift", Period: sim.US(2310), Deadline: sim.MS(4)}})
	if err != nil {
		t.Fatal(err)
	}
	a := as[0]
	if a.Repetition != 2 {
		t.Fatalf("repetition %d, want 2", a.Repetition)
	}
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfg, rec)
	b.MustAddFrame(staticFrames(as)[0])
	b.Start()
	k.Run(sim.Second)
	st := trace.Compute(rec.Latencies("drift"))
	if st.Max > a.WCRT {
		t.Fatalf("simulated max %v exceeds WCRT bound %v", st.Max, a.WCRT)
	}
	if st.Max < a.WCRT/2 {
		t.Fatalf("bound %v too loose vs observed %v; check analysis", a.WCRT, st.Max)
	}
}

func TestDynamicWCRTBoundsSimulation(t *testing.T) {
	cfg := cfgSmall()
	frames := []*Frame{
		{Name: "d1", Kind: Dynamic, FrameID: 5, Length: 6, Period: sim.US(2310)},
		{Name: "d2", Kind: Dynamic, FrameID: 6, Length: 6, Period: sim.US(3570)},
		{Name: "d3", Kind: Dynamic, FrameID: 7, Length: 6, Period: sim.US(5010), Deadline: sim.MS(40)},
	}
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfg, rec)
	for _, f := range frames {
		b.MustAddFrame(f)
	}
	b.Start()
	k.Run(sim.Second)
	for _, f := range frames {
		bound, err := DynamicWCRT(cfg, f, frames)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		st := trace.Compute(rec.Latencies(f.Name))
		if st.N == 0 {
			t.Fatalf("%s never delivered", f.Name)
		}
		if st.Max > bound {
			t.Fatalf("%s simulated max %v exceeds bound %v", f.Name, st.Max, bound)
		}
	}
}

func TestDynamicWCRTOverload(t *testing.T) {
	cfg := cfgSmall()
	frames := []*Frame{
		{Name: "d1", Kind: Dynamic, FrameID: 5, Length: 19, Period: sim.US(1100)},
		{Name: "d2", Kind: Dynamic, FrameID: 6, Length: 6, Period: sim.US(1100)},
	}
	if _, err := DynamicWCRT(cfg, frames[1], frames); err == nil {
		t.Fatal("overloaded dynamic segment got a bound")
	}
	if _, err := DynamicWCRT(cfg, frames[0], frames); err != nil {
		t.Fatalf("highest-priority dynamic frame should be bounded: %v", err)
	}
}

func TestSynthesizePlacesAllSignals(t *testing.T) {
	cfg := cfgSmall()
	cyc := cfg.CycleLength() // 1.1ms
	signals := []Signal{
		{Name: "fast", Period: sim.MS(5)},
		{Name: "med", Period: sim.MS(10)},
		{Name: "slow", Period: sim.MS(40)},
	}
	as, err := Synthesize(cfg, signals)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 {
		t.Fatalf("placed %d signals, want 3", len(as))
	}
	for _, a := range as {
		deadline := a.Signal.Period
		if a.WCRT > deadline {
			t.Errorf("%s: WCRT %v exceeds deadline %v", a.Signal.Name, a.WCRT, deadline)
		}
		if sim.Duration(a.Repetition)*cyc > a.Signal.Period {
			t.Errorf("%s: repetition %d too slow for period %v", a.Signal.Name, a.Repetition, a.Signal.Period)
		}
	}
	// The synthesized frames must be accepted by the bus (no collisions)
	// and meet deadlines in simulation.
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfg, rec)
	for _, f := range staticFrames(as) {
		b.MustAddFrame(f)
	}
	b.Start()
	k.Run(sim.Second)
	if n := rec.Count(trace.Miss, ""); n != 0 {
		t.Fatalf("synthesized schedule produced %d deadline misses", n)
	}
}

// staticFrames converts assignments into static frame streams ready to
// add to a Bus, queuing each signal at its period.
func staticFrames(as []Assignment) []*Frame {
	out := make([]*Frame, len(as))
	for i, a := range as {
		out[i] = &Frame{
			Name: a.Signal.Name, Kind: Static,
			SlotID: a.SlotID, Base: a.Base, Repetition: a.Repetition,
			Period: a.Signal.Period, Deadline: a.Signal.Deadline,
		}
	}
	return out
}

func TestSynthesizeSharesSlots(t *testing.T) {
	cfg := cfgSmall()
	// Eight slow signals must share the 4 slots via repetition.
	var signals []Signal
	for i := 0; i < 8; i++ {
		signals = append(signals, Signal{Name: "s" + string(rune('0'+i)), Period: sim.MS(20)})
	}
	as, err := Synthesize(cfg, signals)
	if err != nil {
		t.Fatal(err)
	}
	slots := map[int]int{}
	for _, a := range as {
		slots[a.SlotID]++
	}
	if len(slots) > 4 {
		t.Fatalf("used %d slots, only 4 exist", len(slots))
	}
}

func TestSynthesizeRejectsImpossible(t *testing.T) {
	cfg := cfgSmall()
	// Deadline below one cycle is unreachable.
	if _, err := Synthesize(cfg, []Signal{{Name: "x", Period: sim.US(500)}}); err == nil {
		t.Fatal("sub-cycle deadline accepted")
	}
	// More always-on signals than slots.
	var signals []Signal
	for i := 0; i < 5; i++ {
		signals = append(signals, Signal{Name: "f" + string(rune('0'+i)), Period: sim.US(1500)})
	}
	if _, err := Synthesize(cfg, signals); err == nil {
		t.Fatal("overfull static segment accepted")
	}
	if _, err := Synthesize(Config{Minislots: 5, MinislotLength: 1}, []Signal{{Name: "x", Period: sim.MS(1)}}); err == nil {
		t.Fatal("synthesis without static slots accepted")
	}
}

func TestFrameKindString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("frame kind names")
	}
}

func TestDualChannelRedundancy(t *testing.T) {
	k := sim.NewKernel()
	rec := &trace.Recorder{}
	b := MustNewBus(k, "fr0", cfgSmall(), rec)
	// Two safety frames: one on channel A only, one redundant on A+B.
	b.MustAddFrame(&Frame{Name: "single", Kind: Static, SlotID: 1, Repetition: 1, Period: sim.US(1100), Channel: ChannelA})
	b.MustAddFrame(&Frame{Name: "redundant", Kind: Static, SlotID: 2, Repetition: 1, Period: sim.US(1100), Channel: ChannelAB})
	// Channel A dies mid-run.
	b.FailChannel(ChannelA, sim.MS(5))
	b.Start()
	k.Run(sim.MS(11))
	single := rec.Count(trace.Finish, "single")
	redundant := rec.Count(trace.Finish, "redundant")
	if single >= 9 {
		t.Fatalf("single-channel frame survived channel failure: %d deliveries", single)
	}
	if redundant < 9 {
		t.Fatalf("redundant frame lost deliveries: %d", redundant)
	}
	if rec.Count(trace.Error, "single") == 0 {
		t.Fatal("channel failure not recorded")
	}
}

func TestSlotSharingAcrossChannels(t *testing.T) {
	k := sim.NewKernel()
	b := MustNewBus(k, "fr0", cfgSmall(), nil)
	b.MustAddFrame(&Frame{Name: "a", Kind: Static, SlotID: 1, Repetition: 1, Period: sim.MS(1), Channel: ChannelA})
	// Same slot & cycle pattern on the other channel: allowed.
	if err := b.AddFrame(&Frame{Name: "b", Kind: Static, SlotID: 1, Repetition: 1, Period: sim.MS(1), Channel: ChannelB}); err != nil {
		t.Fatalf("cross-channel slot sharing rejected: %v", err)
	}
	// Redundant frame overlaps both: rejected on slot 1.
	if b.AddFrame(&Frame{Name: "c", Kind: Static, SlotID: 1, Repetition: 1, Channel: ChannelAB}) == nil {
		t.Fatal("AB frame collided with A and B owners but was accepted")
	}
}

func TestChannelString(t *testing.T) {
	if ChannelA.String() != "A" || ChannelB.String() != "B" || ChannelAB.String() != "AB" {
		t.Fatal("channel names")
	}
}

func TestSynthesizeNeverOverlapsQuick(t *testing.T) {
	// Property: for random signal sets that synthesize successfully, no
	// two assignments ever own the same (slot, cycle) pair, and every
	// WCRT meets its deadline.
	f := func(seed uint64, nRaw uint8) bool {
		r := sim.NewRand(seed)
		n := int(nRaw%12) + 1
		cfg := cfgSmall()
		periods := []sim.Duration{sim.MS(5), sim.MS(10), sim.MS(20), sim.MS(40)}
		var sigs []Signal
		for i := 0; i < n; i++ {
			sigs = append(sigs, Signal{
				Name:   string(rune('a' + i)),
				Period: periods[r.Intn(len(periods))],
			})
		}
		as, err := Synthesize(cfg, sigs)
		if err != nil {
			return true // full segment is a legal outcome
		}
		occupied := map[[2]int]bool{}
		for _, a := range as {
			if a.WCRT > a.Signal.Period {
				return false
			}
			for c := a.Base; c < MaxCycle; c += a.Repetition {
				key := [2]int{a.SlotID, c}
				if occupied[key] {
					return false
				}
				occupied[key] = true
			}
		}
		return len(as) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
