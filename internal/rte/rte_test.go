package rte

import (
	"fmt"
	"testing"

	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/protection"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// chainSystem builds sensor -> controller -> actuator with the sensor and
// actuator on ecu1 and the controller on ecu2, over the given bus kind.
func chainSystem(busKind model.BusKind) *model.System {
	ifSpeed := &model.PortInterface{
		Name: "IfSpeed", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ifCmd := &model.PortInterface{
		Name: "IfCmd", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
	}
	sensor := &model.SWC{
		Name: "Sensor", Supplier: "tier1a", DAS: "chassis",
		Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifSpeed}},
		Runnables: []model.Runnable{{
			Name: "sample", WCETNominal: sim.US(50),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
			Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
		}},
	}
	ctrl := &model.SWC{
		Name: "Ctrl", Supplier: "tier1b", DAS: "chassis",
		Ports: []model.Port{
			{Name: "in", Direction: model.Required, Interface: ifSpeed},
			{Name: "cmd", Direction: model.Provided, Interface: ifCmd},
		},
		Runnables: []model.Runnable{{
			Name: "law", WCETNominal: sim.US(200),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
			Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
			Writes:  []model.PortRef{{Port: "cmd", Elem: "u"}},
		}},
	}
	act := &model.SWC{
		Name: "Act", Supplier: "tier1a", DAS: "chassis",
		Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifCmd}},
		Runnables: []model.Runnable{{
			Name: "apply", WCETNominal: sim.US(80),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "u"},
			Reads:   []model.PortRef{{Port: "in", Elem: "u"}},
		}},
	}
	return &model.System{
		Name:       "chain",
		Interfaces: []*model.PortInterface{ifSpeed, ifCmd},
		Components: []*model.SWC{sensor, ctrl, act},
		ECUs: []*model.ECU{
			{Name: "ecu1", Speed: 1, Buses: []string{"bus0"}},
			{Name: "ecu2", Speed: 1, Buses: []string{"bus0"}},
		},
		Buses: []*model.Bus{{Name: "bus0", Kind: busKind, BitRate: 500_000}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
		},
		Mapping: map[string]string{"Sensor": "ecu1", "Ctrl": "ecu2", "Act": "ecu1"},
	}
}

func TestBuildValidations(t *testing.T) {
	s := chainSystem(model.BusCAN)
	delete(s.Mapping, "Act")
	if _, err := Build(s, Options{}); err == nil {
		t.Fatal("unmapped component accepted")
	}
	s = chainSystem(model.BusCAN)
	s.Connectors = s.Connectors[:1]
	if _, err := Build(s, Options{}); err == nil {
		t.Fatal("unconnected R-port accepted")
	}
}

func TestDistributedChainOverCAN(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	var applied int
	var lastU float64
	p.SetBehavior("Sensor", "sample", func(c *Context) { c.Write("out", "v", float64(c.Job())) })
	p.SetBehavior("Ctrl", "law", func(c *Context) { c.Write("cmd", "u", c.Read("in", "v")*2) })
	p.SetBehavior("Act", "apply", func(c *Context) { applied++; lastU = c.Read("in", "u") })
	p.Run(sim.MS(95))
	if applied != 10 {
		t.Fatalf("actuator ran %d times, want 10 (one per sensor period)", applied)
	}
	// Job 9 value: 9 * 2 = 18.
	if lastU != 18 {
		t.Fatalf("last command %v, want 18", lastU)
	}
	// The chain crossed the bus twice (Sensor->Ctrl, Ctrl->Act).
	if p.Trace.Count(trace.Finish, "Sensor.out.v->Ctrl.in") != 10 {
		t.Fatal("forward frames not transmitted")
	}
	if p.Trace.Count(trace.Finish, "Ctrl.cmd.u->Act.in") != 10 {
		t.Fatal("return frames not transmitted")
	}
}

func TestDistributedChainOverFlexRay(t *testing.T) {
	s := chainSystem(model.BusFlexRay)
	p := MustBuild(s, Options{})
	var applied int
	p.SetBehavior("Act", "apply", func(c *Context) { applied++ })
	p.Run(sim.MS(95))
	if applied < 8 {
		t.Fatalf("actuator ran %d times over FlexRay, want ~10", applied)
	}
}

func TestDistributedChainOverTTP(t *testing.T) {
	s := chainSystem(model.BusTTP)
	p := MustBuild(s, Options{})
	if p.TTPCluster("bus0") == nil {
		t.Fatal("TTP cluster not built")
	}
	var applied int
	p.SetBehavior("Act", "apply", func(c *Context) { applied++ })
	p.Run(sim.MS(95))
	if applied < 8 {
		t.Fatalf("actuator ran %d times over TTP, want ~10", applied)
	}
}

func TestLocalChainWhenColocated(t *testing.T) {
	s := chainSystem(model.BusCAN)
	s.Mapping["Ctrl"] = "ecu1" // everything local now
	p := MustBuild(s, Options{})
	var applied int
	p.SetBehavior("Act", "apply", func(c *Context) { applied++ })
	p.Run(sim.MS(95))
	if applied != 10 {
		t.Fatalf("local chain ran %d times, want 10", applied)
	}
	// No frames at all on the bus.
	if p.Trace.Count(trace.Finish, "Sensor.out.v->Ctrl.in") != 0 {
		t.Fatal("co-located chain produced bus traffic")
	}
}

func TestLocationTransparency(t *testing.T) {
	// The same behaviours produce the same values whether the controller
	// is local or remote — only latency may differ (§2 transferability).
	run := func(ctrlECU string) float64 {
		s := chainSystem(model.BusCAN)
		s.Mapping["Ctrl"] = ctrlECU
		p := MustBuild(s, Options{})
		var last float64
		p.SetBehavior("Sensor", "sample", func(c *Context) { c.Write("out", "v", 21) })
		p.SetBehavior("Ctrl", "law", func(c *Context) { c.Write("cmd", "u", c.Read("in", "v")+1) })
		p.SetBehavior("Act", "apply", func(c *Context) { last = c.Read("in", "u") })
		p.Run(sim.MS(50))
		return last
	}
	if local, remote := run("ecu1"), run("ecu2"); local != remote || local != 22 {
		t.Fatalf("location changed semantics: local %v, remote %v", local, remote)
	}
}

func TestChainLatencyLocalVsRemote(t *testing.T) {
	lat := func(ctrlECU string) sim.Duration {
		s := chainSystem(model.BusCAN)
		s.Mapping["Ctrl"] = ctrlECU
		p := MustBuild(s, Options{})
		var worst sim.Duration
		var produced sim.Time
		p.SetBehavior("Sensor", "sample", func(c *Context) {
			produced = c.Now()
			c.Write("out", "v", 1)
		})
		p.SetBehavior("Act", "apply", func(c *Context) {
			if d := c.Now() - produced; d > worst {
				worst = d
			}
		})
		p.Run(sim.MS(100))
		return worst
	}
	local, remote := lat("ecu1"), lat("ecu2")
	if local == 0 || remote == 0 {
		t.Fatal("chain did not complete")
	}
	if remote <= local {
		t.Fatalf("remote chain latency %v not above local %v", remote, local)
	}
}

func TestBudgetEnforcementOption(t *testing.T) {
	s := chainSystem(model.BusCAN)
	// The sensor claims 50us but actually runs 5ms, starving ecu1.
	p := MustBuild(s, Options{EnforceBudgets: true})
	p.Task("Sensor", "sample").Demand = func(int64) sim.Duration { return sim.MS(5) }
	p.Run(sim.MS(100))
	if p.Stats("Sensor.sample").AbortCount == 0 {
		t.Fatal("overrunning runnable not aborted despite budgets")
	}
	// The actuator on the same ECU is still schedulable... it only runs
	// when frames arrive, and the sensor never produces (aborted), so
	// check the CPU itself stayed responsive via utilization bound.
	if u := p.CPU("ecu1").Utilization(); u > 0.2 {
		t.Fatalf("ecu1 utilization %v; budget enforcement failed to cap the overrun", u)
	}
}

func TestIsolationOptionsBuild(t *testing.T) {
	for _, iso := range []IsolationKind{ServerPerSupplier, TablePerSupplier} {
		s := chainSystem(model.BusCAN)
		p, err := Build(s, Options{Isolation: iso, ServerKind: protection.Deferrable})
		if err != nil {
			t.Fatalf("isolation %v: %v", iso, err)
		}
		var applied int
		p.SetBehavior("Act", "apply", func(c *Context) { applied++ })
		p.Run(sim.MS(100))
		if applied == 0 {
			t.Fatalf("isolation %v: chain dead", iso)
		}
	}
}

func TestErrorManagerReportAndSubscribe(t *testing.T) {
	s := chainSystem(model.BusCAN)
	// Add a diagnostic component subscribing to sensor errors.
	ifDiag := &model.PortInterface{
		Name: "IfDiag", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "x", Type: model.UInt8}},
	}
	s.Interfaces = append(s.Interfaces, ifDiag)
	s.Components = append(s.Components, &model.SWC{
		Name: "Diag", Supplier: "oem",
		Runnables: []model.Runnable{{
			Name: "onSensorFault", WCETNominal: sim.US(20),
			Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "sensor"},
		}},
	})
	s.Mapping["Diag"] = "ecu2"
	p := MustBuild(s, Options{})
	var handled int
	p.SetBehavior("Diag", "onSensorFault", func(c *Context) { handled++ })
	p.SetBehavior("Sensor", "sample", func(c *Context) {
		if c.Job() == 3 {
			c.Report(ErrSensor, "implausible reading")
		}
		c.Write("out", "v", 1)
	})
	p.Run(sim.MS(95))
	if handled != 1 {
		t.Fatalf("error handler ran %d times, want 1", handled)
	}
	if p.Errors.CountKind(ErrSensor) != 1 {
		t.Fatal("error not recorded")
	}
	if len(p.Errors.Records()) != 1 || p.Errors.Records()[0].Source != "Sensor" {
		t.Fatalf("bad records: %+v", p.Errors.Records())
	}
}

func TestClientServerInvocation(t *testing.T) {
	ifSrv := &model.PortInterface{
		Name: "IfApply", Kind: model.ClientServer,
		Operations: []model.Operation{{Name: "Apply"}},
	}
	server := &model.SWC{
		Name:  "BrakeServer",
		Ports: []model.Port{{Name: "srv", Direction: model.Provided, Interface: ifSrv}},
		Runnables: []model.Runnable{{
			Name: "serve", WCETNominal: sim.US(100),
			Trigger: model.Trigger{Kind: model.OperationInvokedEvent, Port: "srv", Elem: "Apply"},
		}},
	}
	client := &model.SWC{
		Name:  "Pedal",
		Ports: []model.Port{{Name: "call", Direction: model.Required, Interface: ifSrv}},
		Runnables: []model.Runnable{{
			Name: "poll", WCETNominal: sim.US(30),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(20)},
		}},
	}
	s := &model.System{
		Name:       "cs",
		Interfaces: []*model.PortInterface{ifSrv},
		Components: []*model.SWC{server, client},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
		},
		Buses:      []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{{FromSWC: "BrakeServer", FromPort: "srv", ToSWC: "Pedal", ToPort: "call"}},
		Mapping:    map[string]string{"BrakeServer": "e1", "Pedal": "e2"},
	}
	p := MustBuild(s, Options{})
	var served int
	p.SetBehavior("BrakeServer", "serve", func(c *Context) { served++ })
	p.SetBehavior("Pedal", "poll", func(c *Context) { c.Invoke("call") })
	p.Run(sim.MS(95))
	if served != 5 {
		t.Fatalf("server ran %d times, want 5 (calls at 0,20,..,80)", served)
	}
}

func TestValueAndAge(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.SetBehavior("Sensor", "sample", func(c *Context) { c.Write("out", "v", 42) })
	var sawAge sim.Duration = -1
	p.SetBehavior("Ctrl", "law", func(c *Context) {
		sawAge = c.Age("in", "v")
		c.Write("cmd", "u", c.Read("in", "v"))
	})
	p.Run(sim.MS(50))
	if v, ok := p.Value("Ctrl", "in", "v"); !ok || v != 42 {
		t.Fatalf("Value = (%v,%v), want (42,true)", v, ok)
	}
	if sawAge < 0 {
		t.Fatal("age not observed")
	}
	if _, ok := p.Value("Ctrl", "in", "ghost"); ok {
		t.Fatal("unknown element has a value")
	}
}

func TestDefaultBehaviorPropagatesChain(t *testing.T) {
	// Without any registered behaviours, default behaviours must still
	// drive the trigger chain end to end.
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.Run(sim.MS(95))
	if p.Stats("Act.apply").N == 0 {
		t.Fatal("default behaviours did not propagate the chain")
	}
}

func TestStatsExposesTaskResponse(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.Run(sim.MS(95))
	st := p.Stats("Sensor.sample")
	if st.N != 10 || st.Max < sim.US(50) {
		t.Fatalf("sensor stats %+v", st)
	}
}

func TestSetBehaviorValidation(t *testing.T) {
	p := MustBuild(chainSystem(model.BusCAN), Options{})
	if err := p.SetBehavior("Ghost", "x", nil); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := p.SetBehavior("Sensor", "ghost", nil); err == nil {
		t.Fatal("unknown runnable accepted")
	}
}

func TestSwitchModeActivatesSubscribers(t *testing.T) {
	s := chainSystem(model.BusCAN)
	// A mode-dependent component: one handler for "limp-home".
	s.Components = append(s.Components, &model.SWC{
		Name: "ModeCtl", Supplier: "oem",
		Runnables: []model.Runnable{{
			Name: "onLimpHome", WCETNominal: sim.US(10),
			Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "limp-home"},
		}},
	})
	s.Mapping["ModeCtl"] = "ecu1"
	p := MustBuild(s, Options{})
	var entered int
	p.SetBehavior("ModeCtl", "onLimpHome", func(c *Context) { entered++ })
	// Behaviours can switch modes; so can the harness.
	p.SetBehavior("Sensor", "sample", func(c *Context) {
		if c.Job() == 2 {
			p.SwitchMode("limp-home")
		}
		c.Write("out", "v", 1)
	})
	p.K.At(sim.MS(55), func() { p.SwitchMode("limp-home") })
	p.K.At(sim.MS(60), func() { p.SwitchMode("unknown-mode") }) // no subscribers: no-op
	p.Run(sim.MS(100))
	if entered != 2 {
		t.Fatalf("mode handler ran %d times, want 2", entered)
	}
}

func TestBudgetAbortReportsTimingError(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{EnforceBudgets: true})
	p.Task("Sensor", "sample").Demand = func(int64) sim.Duration { return sim.MS(5) }
	p.Run(sim.MS(50))
	if p.Errors.CountKind(ErrTiming) == 0 {
		t.Fatal("budget exhaustion did not reach the error path")
	}
}

func TestAliveSupervisionDetectsStall(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	// Supervise the data-triggered controller. The sensor stops writing
	// during [40ms, 120ms): the controller starves and the watchdog
	// reports one timing error; a second stall from 160ms produces
	// exactly one more.
	if err := p.Supervise("Ctrl", "law", sim.MS(30)); err != nil {
		t.Fatal(err)
	}
	p.SetBehavior("Sensor", "sample", func(c *Context) {
		now := c.Now()
		if (now >= sim.MS(40) && now < sim.MS(120)) || now >= sim.MS(160) {
			return // sensor silent
		}
		c.Write("out", "v", 1)
	})
	p.Run(sim.MS(260))
	if got := p.Errors.CountKind(ErrTiming); got != 2 {
		for _, r := range p.Errors.Records() {
			t.Logf("error at %v: %s %s", sim.Time(r.At), r.Kind, r.Info)
		}
		t.Fatalf("supervision reported %d timing errors, want 2 (one per stall)", got)
	}
}

func TestSuperviseValidation(t *testing.T) {
	p := MustBuild(chainSystem(model.BusCAN), Options{})
	if p.Supervise("Ghost", "x", sim.MS(10)) == nil {
		t.Fatal("unknown task supervised")
	}
	if p.Supervise("Sensor", "sample", 0) == nil {
		t.Fatal("zero window accepted")
	}
}

func TestDTCAggregation(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.K.At(sim.MS(10), func() { p.Errors.Report("Sensor", ErrSensor, "first") })
	p.K.At(sim.MS(20), func() { p.Errors.Report("Sensor", ErrSensor, "again") })
	p.K.At(sim.MS(30), func() { p.Errors.Report("Ctrl", ErrComm, "lost frame") })
	p.Run(sim.MS(50))
	dtcs := p.Errors.DTCs()
	if len(dtcs) != 2 {
		t.Fatalf("DTCs = %d, want 2", len(dtcs))
	}
	first := dtcs[0]
	if first.Source != "Sensor" || first.Occurrences != 2 || first.LastInfo != "again" {
		t.Fatalf("sensor DTC wrong: %+v", first)
	}
	if first.FirstAt != int64(sim.MS(10)) || first.LastAt != int64(sim.MS(20)) {
		t.Fatalf("freeze frames wrong: %+v", first)
	}
	if dtcs[1].Kind != ErrComm || dtcs[1].Occurrences != 1 {
		t.Fatalf("comm DTC wrong: %+v", dtcs[1])
	}
}

func TestGatewayedChainOverTwoBuses(t *testing.T) {
	// Sensor on a CAN domain bus, controller on a FlexRay domain bus,
	// joined by a gateway ECU — the Gateway box of Figure 1 end to end.
	s := chainSystem(model.BusCAN)
	s.Buses = append(s.Buses, &model.Bus{Name: "bus1", Kind: model.BusFlexRay, BitRate: 10_000_000})
	s.ECUs[0].Buses = []string{"bus0"}
	s.ECUs[1].Buses = []string{"bus1"}
	s.ECUs = append(s.ECUs, &model.ECU{Name: "gw", Speed: 1, Buses: []string{"bus0", "bus1"}})
	p := MustBuild(s, Options{})
	var applied int
	var lastU float64
	p.SetBehavior("Sensor", "sample", func(c *Context) { c.Write("out", "v", 7) })
	p.SetBehavior("Ctrl", "law", func(c *Context) { c.Write("cmd", "u", c.Read("in", "v")*3) })
	p.SetBehavior("Act", "apply", func(c *Context) { applied++; lastU = c.Read("in", "u") })
	p.Run(sim.MS(195))
	if applied < 15 {
		t.Fatalf("gatewayed chain ran %d times, want ~19", applied)
	}
	if lastU != 21 {
		t.Fatalf("value through gateway = %v, want 21", lastU)
	}
	// Both segments transmitted on their buses.
	if p.Trace.Count(trace.Finish, "Sensor.out.v->Ctrl.in~1") == 0 {
		t.Fatal("first segment never transmitted")
	}
	if p.Trace.Count(trace.Finish, "Sensor.out.v->Ctrl.in~2") == 0 {
		t.Fatal("second segment never transmitted")
	}
}

func TestDualChannelFlexRayOption(t *testing.T) {
	s := chainSystem(model.BusFlexRay)
	// Make the sensor ASIL-D so its frames go dual-channel.
	s.Component("Sensor").ASIL = model.ASILD
	p := MustBuild(s, Options{DualChannelFlexRay: true})
	var applied int
	p.SetBehavior("Act", "apply", func(c *Context) { applied++ })
	// Kill channel A mid-run: the ASIL-D stream must keep flowing on B.
	p.FlexRayBus("bus0").FailChannel(flexray.ChannelA, sim.MS(40))
	p.Run(sim.MS(95))
	// Sensor->Ctrl survives on channel B; Ctrl (QM, channel A only)
	// stops, so the actuator saw roughly the pre-failure applications.
	finWire := p.Trace.Count(trace.Finish, "Sensor.out.v->Ctrl.in")
	if finWire < 9 {
		t.Fatalf("ASIL-D dual-channel stream lost frames: %d", finWire)
	}
	ctrlWire := p.Trace.Count(trace.Finish, "Ctrl.cmd.u->Act.in")
	if ctrlWire >= 9 {
		t.Fatalf("QM single-channel stream unaffected by channel loss: %d", ctrlWire)
	}
	_ = applied
}

func TestErrorRecordRingBounded(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	const glitches = DefaultErrorRecordCap + 12
	for i := 0; i < glitches; i++ {
		i := i
		p.K.At(sim.US(float64(i)), func() {
			p.Errors.Report("Sensor", ErrSensor, fmt.Sprintf("glitch %d", i))
		})
	}
	p.K.At(sim.MS(25), func() { p.Errors.Report("Ctrl", ErrComm, "lost") })
	p.Run(sim.MS(50))
	recs := p.Errors.Records()
	if len(recs) != DefaultErrorRecordCap {
		t.Fatalf("ring holds %d records, want %d", len(recs), DefaultErrorRecordCap)
	}
	// Chronological order preserved across the wrap; the oldest retained
	// report is the first one the cap did not push out, the newest last.
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("records out of order at %d: %+v, %+v", i, recs[i-1], recs[i])
		}
	}
	if recs[0].Info != "glitch 13" {
		t.Fatalf("oldest record %+v, want glitch 13", recs[0])
	}
	if last := recs[len(recs)-1]; last.Kind != ErrComm {
		t.Fatalf("last record %+v, want the comm error", last)
	}
	// Aggregates stay exact despite the dropped freeze frames.
	if p.Errors.Total() != glitches+1 {
		t.Fatalf("total = %d, want %d", p.Errors.Total(), glitches+1)
	}
	if p.Errors.CountKind(ErrSensor) != glitches {
		t.Fatalf("sensor count = %d, want %d", p.Errors.CountKind(ErrSensor), glitches)
	}
	dtcs := p.Errors.DTCs()
	if len(dtcs) != 2 || dtcs[0].Occurrences != glitches || dtcs[0].FirstAt != int64(sim.MS(0)) {
		t.Fatalf("DTC aggregation lost history: %+v", dtcs)
	}
	if want := fmt.Sprintf("glitch %d", glitches-1); dtcs[0].LastInfo != want {
		t.Fatalf("freeze frame wrong: %+v, want last info %q", dtcs[0], want)
	}
}

func TestErrorManagerOnReportHook(t *testing.T) {
	p := MustBuild(chainSystem(model.BusCAN), Options{})
	var seen []ErrorRecord
	p.Errors.OnReport = func(r ErrorRecord) { seen = append(seen, r) }
	p.K.At(sim.MS(10), func() { p.Errors.Report("Sensor", ErrSensor, "x") })
	p.Run(sim.MS(20))
	if len(seen) != 1 || seen[0].Source != "Sensor" || seen[0].At != int64(sim.MS(10)) {
		t.Fatalf("hook saw %+v", seen)
	}
}

func TestRestartRunnableKillsJobAndRecovers(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	// Make the sensor's 3rd job hang (huge demand); restart it at 35ms.
	p.Task("Sensor", "sample").Demand = func(job int64) sim.Duration {
		if job == 2 {
			return sim.Second
		}
		return sim.US(50)
	}
	p.K.At(sim.MS(35), func() {
		if err := p.RestartRunnable("Sensor", "sample"); err != nil {
			t.Error(err)
		}
	})
	p.Run(sim.MS(95))
	// Jobs 0,1 finish; job 2 killed; releases from 40ms on run again.
	if got := p.Trace.Count(trace.Finish, "Sensor.sample"); got < 7 {
		t.Fatalf("sensor finished %d jobs after restart, want >=7", got)
	}
	if p.Trace.Count(trace.Abort, "Sensor.sample") != 1 {
		t.Fatal("hung job not killed")
	}
	if err := p.RestartRunnable("Ghost", "x"); err == nil {
		t.Fatal("unknown runnable restarted")
	}
}

func TestRestartComponentClearsPortState(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.SetBehavior("Sensor", "sample", func(c *Context) {
		if c.Now() < sim.MS(30) {
			c.Write("out", "v", 42)
		}
	})
	p.K.At(sim.MS(50), func() {
		if _, ok := p.Value("Ctrl", "in", "v"); !ok {
			t.Error("controller never received pre-restart value")
		}
		if err := p.RestartComponent("Ctrl"); err != nil {
			t.Error(err)
		}
		if _, ok := p.Value("Ctrl", "in", "v"); ok {
			t.Error("partition restart kept stale port state")
		}
	})
	p.Run(sim.MS(95))
	if err := p.RestartComponent("Ghost"); err == nil {
		t.Fatal("unknown component restarted")
	}
}

func TestResetECUDowntimeAndResume(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.K.At(sim.MS(32), func() {
		if err := p.ResetECU("ecu1", sim.MS(30)); err != nil {
			t.Error(err)
		}
	})
	p.Run(sim.MS(95))
	// Sensor releases at 0..30 run (4 jobs); 40,50,60 shed during the
	// reboot window [32ms, 62ms); 70,80,90 run again.
	if got := p.Trace.Count(trace.Finish, "Sensor.sample"); got != 7 {
		t.Fatalf("sensor finished %d jobs across ECU reset, want 7", got)
	}
	if got := p.Trace.Count(trace.Drop, "Sensor.sample"); got != 3 {
		t.Fatalf("reboot window shed %d activations, want 3", got)
	}
	if !p.RunnableEnabled("Sensor", "sample") {
		t.Fatal("task still suspended after downtime")
	}
	if err := p.ResetECU("ghost", 0); err == nil {
		t.Fatal("unknown ECU reset")
	}
	if err := p.ResetECU("ecu1", -1); err == nil {
		t.Fatal("negative downtime accepted")
	}
}

func TestSetRunnableEnabledSheds(t *testing.T) {
	s := chainSystem(model.BusCAN)
	p := MustBuild(s, Options{})
	p.K.At(sim.MS(15), func() {
		if err := p.SetRunnableEnabled("Sensor", "sample", false); err != nil {
			t.Error(err)
		}
	})
	p.K.At(sim.MS(55), func() {
		if err := p.SetRunnableEnabled("Sensor", "sample", true); err != nil {
			t.Error(err)
		}
	})
	p.Run(sim.MS(95))
	if got := p.Trace.Count(trace.Finish, "Sensor.sample"); got != 6 {
		t.Fatalf("finished %d jobs, want 6 (2 before shed, 4 after resume)", got)
	}
	if got := p.Trace.Count(trace.Drop, "Sensor.sample"); got != 4 {
		t.Fatalf("shed %d activations, want 4", got)
	}
	if err := p.SetRunnableEnabled("Ghost", "x", false); err == nil {
		t.Fatal("unknown runnable disabled")
	}
}

func TestMustBehaviorPanicsOnUnknownRunnable(t *testing.T) {
	p := MustBuild(chainSystem(model.BusCAN), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("MustBehavior accepted an unknown runnable")
		}
	}()
	p.MustBehavior("Sensor", "ghost", func(c *Context) {})
}

func TestMustBehaviorInstallsValidBehavior(t *testing.T) {
	p := MustBuild(chainSystem(model.BusCAN), Options{})
	ran := 0
	p.MustBehavior("Sensor", "sample", func(c *Context) { ran++ })
	p.Run(sim.MS(50))
	if ran == 0 {
		t.Fatal("behavior installed via MustBehavior never ran")
	}
}
