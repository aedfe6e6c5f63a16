package workload

import (
	"testing"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/vfb"
)

func TestGenerateDAS(t *testing.T) {
	r := sim.NewRand(1)
	comps, ifaces, conns, err := GenerateDAS(DASSpec{
		Name: "chassis", Supplier: "tierC", Chains: 3, Utilization: 0.6, ASIL: model.ASILD,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 9 || len(conns) != 6 || len(ifaces) != 6 {
		t.Fatalf("counts: %d comps %d conns %d ifaces, want 9/6/6", len(comps), len(conns), len(ifaces))
	}
	// All components valid and carrying metadata.
	totalU := 0.0
	for _, c := range comps {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Supplier != "tierC" || c.DAS != "chassis" || c.ASIL != model.ASILD {
			t.Fatalf("metadata lost on %s", c.Name)
		}
		totalU += c.Utilization()
	}
	// Actuators are event-triggered so periodic utilization is below the
	// spec, but the periodic part must be positive and below the total.
	if totalU <= 0 || totalU > 0.6 {
		t.Fatalf("periodic utilization %v outside (0, 0.6]", totalU)
	}
}

func TestGenerateDASValidation(t *testing.T) {
	r := sim.NewRand(1)
	if _, _, _, err := GenerateDAS(DASSpec{Name: "x", Chains: 0, Utilization: 0.5}, r); err == nil {
		t.Fatal("zero chains accepted")
	}
	if _, _, _, err := GenerateDAS(DASSpec{Name: "x", Chains: 1, Utilization: 0}, r); err == nil {
		t.Fatal("zero utilization accepted")
	}
}

func TestGenerateVehicleValidatesAndResolves(t *testing.T) {
	sys, err := GenerateVehicle(VehicleSpec{}, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	// Canonical: 4 DASes x 3 ECUs = 12 ECUs, (4+4+3+2)*3 = 39 SWCs.
	if len(sys.ECUs) != 12 {
		t.Fatalf("ECUs = %d, want 12", len(sys.ECUs))
	}
	if len(sys.Components) != 39 {
		t.Fatalf("components = %d, want 39", len(sys.Components))
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		t.Fatal(err)
	}
	if _, err := vfb.Resolve(sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.UsedECUs()) != 12 {
		t.Fatalf("federated mapping uses %d ECUs, want all 12", len(sys.UsedECUs()))
	}
}

func TestGeneratedVehicleRunsOnRTE(t *testing.T) {
	sys, err := GenerateVehicle(VehicleSpec{}, sim.NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	p := rte.MustBuild(sys, rte.Options{})
	p.Run(sim.MS(100))
	// Every actuator chain must have fired at least once.
	fired := 0
	for _, c := range sys.Components {
		if c.Runnables[0].Trigger.Kind == model.DataReceivedEvent {
			if p.Stats(c.Name+"."+c.Runnables[0].Name).N > 0 {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("no actuator fired on generated vehicle")
	}
}

func TestGenerateVehicleDeterministic(t *testing.T) {
	a, err := GenerateVehicle(VehicleSpec{}, sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateVehicle(VehicleSpec{}, sim.NewRand(5))
	if len(a.Components) != len(b.Components) {
		t.Fatal("non-deterministic component count")
	}
	for i := range a.Components {
		ra, rb := a.Components[i].Runnables[0], b.Components[i].Runnables[0]
		if ra.WCETNominal != rb.WCETNominal || ra.Trigger.Period != rb.Trigger.Period {
			t.Fatalf("component %d differs across same-seed generations", i)
		}
	}
}

func TestGenerateVehicleCrossDASLinks(t *testing.T) {
	sys, err := GenerateVehicle(VehicleSpec{CrossDASLinks: 3}, sim.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	// 6 base connectors per DAS region (2 per chain x chains) plus 3 cross.
	cross := 0
	for _, c := range sys.Connectors {
		if c.ToPort == "xin" {
			cross++
		}
	}
	if cross != 3 {
		t.Fatalf("cross connectors = %d, want 3", cross)
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		t.Fatal(err)
	}
	// Cross traffic flows on the backbone and the system still runs.
	p := rte.MustBuild(sys, rte.Options{})
	p.Run(sim.MS(100))
	seen := false
	for _, r := range p.Routes() {
		if r.Conn.ToPort == "xin" && !r.Local {
			seen = true
		}
	}
	if !seen {
		t.Fatal("cross-DAS route not remote in federated mapping")
	}
	if _, err := GenerateVehicle(VehicleSpec{CrossDASLinks: 9}, sim.NewRand(1)); err == nil {
		t.Fatal("too many cross links accepted")
	}
}
