package core

import (
	"strings"
	"testing"

	"autorte/internal/can"
	"autorte/internal/contract"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func vehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestVerifyFederatedVehicle(t *testing.T) {
	sys := vehicle(t, 1)
	rep, err := Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, e := range rep.ECUs {
			if !e.Schedulable {
				t.Logf("ECU %s (u=%.3f) unschedulable", e.Name, e.Utilization)
			}
		}
		for _, b := range rep.Buses {
			if !b.Schedulable {
				t.Logf("bus %s: %s", b.Name, b.Detail)
			}
		}
		t.Fatal("federated vehicle should verify (spread across 12 ECUs)")
	}
	if len(rep.ECUs) != 12 {
		t.Fatalf("analyzed %d ECUs, want 12", len(rep.ECUs))
	}
	if len(rep.Buses) != 1 {
		t.Fatalf("analyzed %d buses, want 1", len(rep.Buses))
	}
}

func TestVerifyDetectsOverload(t *testing.T) {
	sys := vehicle(t, 2)
	// Cram everything onto one ECU: total utilization ~2.6.
	for name := range sys.Mapping {
		sys.Mapping[name] = sys.ECUs[0].Name
	}
	rep, err := Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("overloaded single-ECU mapping verified")
	}
}

func TestEffectivePeriodTransitive(t *testing.T) {
	sys := vehicle(t, 4)
	// Find an actuator (data-received) and check it inherits the sensor's
	// period transitively (sensor -> ctrl samples periodically -> act).
	for _, comp := range sys.Components {
		if !strings.HasSuffix(comp.Name, "_act") {
			continue
		}
		p := sys.EffectivePeriod(comp, &comp.Runnables[0])
		if p <= 0 {
			t.Fatalf("actuator %s has no derived period", comp.Name)
		}
		return
	}
	t.Fatal("no actuator found")
}

func TestVerifyWithContracts(t *testing.T) {
	sys := vehicle(t, 5)
	// Give one sensor and its controller matching contracts.
	sensor, ctrl := "", ""
	for _, c := range sys.Components {
		if strings.HasSuffix(c.Name, "_c0_sensor") && sensor == "" {
			sensor = c.Name
			ctrl = strings.Replace(c.Name, "_sensor", "_ctrl", 1)
			break
		}
	}
	contracts := map[string]*contract.Contract{
		sensor: {
			Component:  sensor,
			Guarantees: []contract.Condition{{Kind: contract.ValueRange, Port: "out", Elem: "v", Lo: 0, Hi: 100}},
		},
		ctrl: {
			Component: ctrl,
			Assumes:   []contract.Condition{{Kind: contract.ValueRange, Port: "in", Elem: "v", Lo: 0, Hi: 200}},
		},
	}
	rep, err := Verify(sys, contracts, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Contracts == nil || !rep.Contracts.OK() || rep.Contracts.Checked != 1 {
		t.Fatalf("contract check wrong: %+v", rep.Contracts)
	}
	// Now make them incompatible.
	contracts[ctrl].Assumes[0].Hi = 50
	rep, _ = Verify(sys, contracts, rte.Options{})
	if rep.OK() {
		t.Fatal("incompatible contracts passed verification")
	}
}

func TestVerifyChainConstraints(t *testing.T) {
	sys := vehicle(t, 6)
	// Add an end-to-end constraint over one chassis chain with a generous
	// budget, and one with an impossible budget.
	var sensor, ctrl, act string
	for _, c := range sys.Components {
		if strings.HasPrefix(c.Name, "chassis_c0_") {
			switch {
			case strings.HasSuffix(c.Name, "_sensor"):
				sensor = c.Name
			case strings.HasSuffix(c.Name, "_ctrl"):
				ctrl = c.Name
			case strings.HasSuffix(c.Name, "_act"):
				act = c.Name
			}
		}
	}
	chain := []model.PortRef2{
		{SWC: sensor, Port: "out"}, {SWC: ctrl, Port: "in"},
		{SWC: ctrl, Port: "cmd"}, {SWC: act, Port: "in"},
	}
	sys.Constraints = []model.LatencyConstraint{
		{Name: "generous", Chain: chain, Budget: sim.MS(200)},
		{Name: "impossible", Chain: chain, Budget: sim.US(1)},
	}
	rep, err := Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chains) != 2 {
		t.Fatalf("chains analyzed: %d, want 2", len(rep.Chains))
	}
	byName := map[string]ChainReport{}
	for _, c := range rep.Chains {
		byName[c.Name] = c
	}
	if g := byName["generous"]; !g.OK || g.Err != "" {
		t.Fatalf("generous chain failed: %+v", g)
	}
	if byName["impossible"].OK {
		t.Fatal("impossible chain budget verified")
	}
}

// TestChainBoundDominatesSimulation: the analytic chain bound must cover
// the measured end-to-end latency on the actual platform.
func TestChainBoundDominatesSimulation(t *testing.T) {
	sys := vehicle(t, 7)
	var sensor, ctrl, act string
	for _, c := range sys.Components {
		if strings.HasPrefix(c.Name, "powertrain_c0_") {
			switch {
			case strings.HasSuffix(c.Name, "_sensor"):
				sensor = c.Name
			case strings.HasSuffix(c.Name, "_ctrl"):
				ctrl = c.Name
			case strings.HasSuffix(c.Name, "_act"):
				act = c.Name
			}
		}
	}
	chain := []model.PortRef2{
		{SWC: sensor, Port: "out"}, {SWC: ctrl, Port: "in"},
		{SWC: ctrl, Port: "cmd"}, {SWC: act, Port: "in"},
	}
	sys.Constraints = []model.LatencyConstraint{{Name: "pt0", Chain: chain, Budget: sim.Second}}
	rep, err := Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chains[0].Err != "" {
		t.Fatal(rep.Chains[0].Err)
	}
	bound := rep.Chains[0].Bound

	// Measure on the platform: track worst sensor->act latency.
	p := rte.MustBuild(sys.Clone(), rte.Options{})
	var worst sim.Duration
	var produced sim.Time
	if err := p.SetBehavior(sensor, "sample", func(c *rte.Context) {
		produced = c.Now()
		c.Write("out", "v", 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBehavior(act, "apply", func(c *rte.Context) {
		if d := c.Now() - produced; d > worst {
			worst = d
		}
	}); err != nil {
		t.Fatal(err)
	}
	p.Run(sim.Second)
	if worst == 0 {
		t.Fatal("chain never completed in simulation")
	}
	if worst > bound {
		t.Fatalf("measured chain latency %v exceeds analytic bound %v", worst, bound)
	}
}

func TestCheckExtensionStabilityUnderIsolation(t *testing.T) {
	base := vehicle(t, 8)
	// Extended system: an extra greedy supplier component on the first
	// chassis ECU, at higher priority (faster period) than existing tasks.
	extended := base.Clone()
	ifX := &model.PortInterface{
		Name: "IfX", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "x", Type: model.UInt8}},
	}
	extended.Interfaces = append(extended.Interfaces, ifX)
	// "z" prefix: sorts after every tier* supplier, so a planned TT table
	// appends its window in the spare tail.
	intruder := &model.SWC{
		Name: "zAftermarket_comp", Supplier: "zAftermarket", DAS: "aftermarket",
		Runnables: []model.Runnable{{
			Name: "spin", WCETNominal: sim.US(900),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(1)},
		}},
	}
	extended.Components = append(extended.Components, intruder)
	// Place it on the busiest chassis ECU.
	extended.Mapping[intruder.Name] = "ecu_chassis_0"

	horizon := sim.MS(300)
	plain, err := CheckExtension(base, extended, rte.Options{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stable {
		t.Fatal("plain FP reported stable after adding a 90%-load intruder; E9 baseline vacuous")
	}
	// A planned time-triggered integration: explicit major frame and
	// explicit per-supplier reservations, with spare capacity left for
	// future suppliers — the "careful planning" §1 describes. The
	// intruder's window lands in the spare tail, so prior windows (and
	// thus prior timing) are untouched.
	planned := rte.Options{
		Isolation:  rte.TablePerSupplier,
		MajorFrame: sim.MS(1),
		Reservations: map[string]float64{
			"tierP": 0.55, "tierC": 0.55, "tierB": 0.35, "tierT": 0.35,
			"zAftermarket": 0.30,
		},
	}
	isolated, err := CheckExtension(base, extended, planned, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !isolated.Stable {
		for _, d := range isolated.Deltas {
			if d.Degraded {
				t.Logf("degraded: %s %v -> %v (miss %d -> %d)", d.Task, d.Before, d.After, d.MissesBefore, d.MissesAfter)
			}
		}
		t.Fatal("planned TT isolation failed to preserve prior services")
	}
}

func TestSimulateConvenience(t *testing.T) {
	p, err := Simulate(vehicle(t, 9), rte.Options{}, sim.MS(50))
	if err != nil {
		t.Fatal(err)
	}
	if p.K.Now() != sim.MS(50) {
		t.Fatalf("simulation clock %v, want 50ms", p.K.Now())
	}
}

func TestVerifyGatewayedChain(t *testing.T) {
	// Sensor domain on can0, controller domain on can1, joined by a
	// gateway ECU; the chain constraint must be bounded across both
	// segments and the bound must dominate the measured latency.
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	sys := &model.System{
		Name:       "gw",
		Interfaces: []*model.PortInterface{ifV},
		Components: []*model.SWC{
			{
				Name:  "Sensor",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(20)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			{
				Name:  "Ctrl",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "law", WCETNominal: sim.US(100),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can1"}},
			{Name: "gwEcu", Speed: 1, Buses: []string{"can0", "can1"}},
		},
		Buses: []*model.Bus{
			{Name: "can0", Kind: model.BusCAN, BitRate: 500_000},
			{Name: "can1", Kind: model.BusCAN, BitRate: 500_000},
		},
		Connectors: []model.Connector{{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"}},
		Mapping:    map[string]string{"Sensor": "e1", "Ctrl": "e2"},
		Constraints: []model.LatencyConstraint{{
			Name:   "crossDomain",
			Chain:  []model.PortRef2{{SWC: "Sensor", Port: "out"}, {SWC: "Ctrl", Port: "in"}},
			Budget: sim.MS(20),
		}},
	}
	// The bound must dominate the measurement under protection and
	// extended identifiers too, and grow with their longer frames.
	var plain sim.Duration
	for _, tc := range []struct {
		name string
		opts rte.Options
	}{
		{"default", rte.Options{}},
		{"e2e", rte.Options{E2E: &rte.E2EOptions{}}},
		{"extended", rte.Options{CANConfig: can.Config{Extended: true}}},
	} {
		rep, err := Verify(sys, nil, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chains[0].Err != "" {
			t.Fatal(rep.Chains[0].Err)
		}
		bound := rep.Chains[0].Bound
		if !rep.Chains[0].OK {
			t.Fatalf("%s: cross-domain chain bound %v exceeds budget", tc.name, bound)
		}
		// Both buses carry load in the report.
		if len(rep.Buses) != 2 {
			t.Fatalf("%s: buses analyzed = %d, want 2", tc.name, len(rep.Buses))
		}
		if plain == 0 {
			plain = bound
		} else if bound <= plain {
			t.Fatalf("%s: bound %v not above the plain frames' %v", tc.name, bound, plain)
		}
		// Measure and compare.
		p := rte.MustBuild(sys.Clone(), tc.opts)
		var worst sim.Duration
		var produced sim.Time
		p.SetBehavior("Sensor", "sample", func(c *rte.Context) {
			produced = c.Now()
			c.Write("out", "v", 1)
		})
		p.SetBehavior("Ctrl", "law", func(c *rte.Context) {
			if d := c.Now() - produced; d > worst {
				worst = d
			}
		})
		p.Run(sim.Second)
		if worst == 0 {
			t.Fatalf("%s: gatewayed chain never completed", tc.name)
		}
		if worst > bound {
			t.Fatalf("%s: measured %v exceeds bound %v", tc.name, worst, bound)
		}
		t.Logf("%s: bound %v, measured %v", tc.name, bound, worst)
	}
}

func TestVerifyTTPBusCapacity(t *testing.T) {
	sys := vehicle(t, 12)
	sys.Buses[0].Kind = model.BusTTP
	rep, err := Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buses) != 1 || rep.Buses[0].Kind != model.BusTTP {
		t.Fatalf("TTP bus not analyzed: %+v", rep.Buses)
	}
	// 12 nodes x 250us = 3ms round; chassis signals at 2ms period violate
	// the TDMA capacity rule.
	if rep.Buses[0].Schedulable {
		t.Fatal("3ms TDMA round accepted 2ms-period signals")
	}
	// A faster slot length fixes it: 12 x 100us = 1.2ms round < 2ms.
	rep, err = Verify(sys, nil, rte.Options{TTPSlotLength: sim.US(100)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Buses[0].Schedulable {
		t.Fatalf("1.2ms TDMA round rejected: %s", rep.Buses[0].Detail)
	}
}
