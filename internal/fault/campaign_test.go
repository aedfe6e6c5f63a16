package fault

import (
	"fmt"
	"testing"

	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

func TestSweepCrossProduct(t *testing.T) {
	scs := Sweep([]FaultClass{FaultSensorSilent, FaultCANBurst},
		[]sim.Time{sim.MS(50), sim.MS(80)}, sim.MS(60))
	if len(scs) != 4 {
		t.Fatalf("sweep produced %d scenarios, want 4", len(scs))
	}
	for _, s := range scs {
		if !s.Transient() || s.Until != s.InjectAt+sim.Time(sim.MS(60)) {
			t.Fatalf("transient window wrong: %+v", s)
		}
	}
	perm := Sweep([]FaultClass{FaultOverrun}, []sim.Time{sim.MS(50)}, 0)
	if len(perm) != 1 || perm[0].Transient() {
		t.Fatalf("permanent sweep wrong: %+v", perm)
	}
}

func TestAvailabilityCountsExpectedFinishes(t *testing.T) {
	r := &trace.Recorder{}
	// 10 expected jobs in [0,100ms); 7 finished.
	for i := 0; i < 7; i++ {
		r.Emit(sim.MS(10)*sim.Time(i)+sim.US(100), trace.Finish, "Act.apply", int64(i), "")
	}
	av, err := Availability(r, "Act.apply", sim.MS(10), 0, sim.MS(100))
	if err != nil || av != 0.7 {
		t.Fatalf("availability (%v, %v), want (0.7, nil)", av, err)
	}
	if _, err := Availability(r, "Act.apply", sim.MS(10), 0, 0); err == nil {
		t.Fatal("zero-length window: want explicit error, got nil")
	}
	if _, err := Availability(r, "Act.apply", 0, 0, sim.MS(100)); err == nil {
		t.Fatal("non-positive period: want explicit error, got nil")
	}
	if _, err := AvailabilityAny(r, nil, sim.MS(10), 0, sim.MS(100)); err == nil {
		t.Fatal("no sources: want explicit error, got nil")
	}
}

func TestAvailabilityAnyUnionsSources(t *testing.T) {
	r := &trace.Recorder{}
	// Primary delivers jobs 0..4, then the promoted standby takes over for
	// jobs 5..9: the union is full service, each source alone is half.
	for i := 0; i < 5; i++ {
		r.Emit(sim.MS(10)*sim.Time(i)+sim.US(100), trace.Finish, "Act.apply", int64(i), "")
	}
	for i := 5; i < 10; i++ {
		r.Emit(sim.MS(10)*sim.Time(i)+sim.US(100), trace.Finish, "Act#1.apply", int64(i), "")
	}
	av, err := AvailabilityAny(r, []string{"Act.apply", "Act#1.apply"}, sim.MS(10), 0, sim.MS(100))
	if err != nil || av != 1 {
		t.Fatalf("union availability (%v, %v), want (1, nil)", av, err)
	}
	solo, err := Availability(r, "Act.apply", sim.MS(10), 0, sim.MS(100))
	if err != nil || solo != 0.5 {
		t.Fatalf("primary-only availability (%v, %v), want (0.5, nil)", solo, err)
	}
}

func TestServiceRecoveryAnyMergesStreams(t *testing.T) {
	r := &trace.Recorder{}
	// Primary up until 30ms, killed; standby resumes delivery at 80ms.
	for i := int64(1); i <= 3; i++ {
		r.Emit(sim.MS(10)*sim.Time(i), trace.Finish, "Act.apply", i, "")
	}
	for i := int64(8); i <= 15; i++ {
		r.Emit(sim.MS(10)*sim.Time(i), trace.Finish, "Act#1.apply", i, "")
	}
	lat, ok, err := ServiceRecoveryAny(r, []string{"Act.apply", "Act#1.apply"}, sim.MS(10), sim.MS(25), sim.MS(160))
	if err != nil || !ok || lat != sim.MS(55) {
		t.Fatalf("merged recovery (%v,%v,%v), want (55ms,true,nil)", lat, ok, err)
	}
	// Primary alone never recovers.
	if _, ok, err := ServiceRecovery(r, "Act.apply", sim.MS(10), sim.MS(25), sim.MS(160)); err != nil || ok {
		t.Fatalf("primary alone reported recovered (err=%v)", err)
	}
}

func TestServiceRecoveryFindsLastOutage(t *testing.T) {
	r := &trace.Recorder{}
	emit := func(ms float64, job int64) {
		r.Emit(sim.MS(ms), trace.Finish, "Act.apply", job, "")
	}
	// Up at 10,20; outage (30..70 missing); resumes 80,90,...,150.
	emit(10, 0)
	emit(20, 1)
	for i := int64(0); i < 8; i++ {
		emit(float64(80+10*i), 2+i)
	}
	lat, ok, err := ServiceRecovery(r, "Act.apply", sim.MS(10), sim.MS(25), sim.MS(160))
	if err != nil || !ok || lat != sim.MS(55) {
		t.Fatalf("recovery (%v,%v,%v), want (55ms,true,nil)", lat, ok, err)
	}
	// Still down at horizon: no finishes after 150 but horizon 300.
	if _, ok, err := ServiceRecovery(r, "Act.apply", sim.MS(10), sim.MS(25), sim.MS(300)); err != nil || ok {
		t.Fatalf("service down at horizon reported as recovered (err=%v)", err)
	}
	// No outage at all.
	lat, ok, err = ServiceRecovery(r, "Act.apply", sim.MS(10), sim.MS(85), sim.MS(160))
	if err != nil || !ok || lat != 0 {
		t.Fatalf("outage-free stream: (%v,%v,%v), want (0,true,nil)", lat, ok, err)
	}
	// Horizon at or before the injection is a configuration error.
	if _, _, err := ServiceRecovery(r, "Act.apply", sim.MS(10), sim.MS(160), sim.MS(160)); err == nil {
		t.Fatal("horizon == injectAt: want explicit error, got nil")
	}
}

// campaignSystem extends monitoredSystem with a data-driven actuator:
// availability is observed where the function is delivered, so a silent
// sensor (whose own task keeps finishing empty jobs) registers as an
// outage.
func campaignSystem() *model.System {
	sys := monitoredSystem()
	sys.Components = append(sys.Components, &model.SWC{
		Name:  "Act",
		Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: sys.Interfaces[0]}},
		Runnables: []model.Runnable{{
			Name: "consume", WCETNominal: sim.US(10),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
			Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
		}},
	})
	sys.Connectors = append(sys.Connectors,
		model.Connector{FromSWC: "Sensor", FromPort: "out", ToSWC: "Act", ToPort: "in"})
	sys.Mapping["Act"] = "e1"
	return sys
}

// campaignRun is the smoke scenario runner: a monitored sensor system per
// scenario, fully self-contained so scenarios can run concurrently.
func campaignRun(horizon sim.Time) func(Scenario) Result {
	return func(s Scenario) Result {
		p := rte.MustBuild(campaignSystem(), rte.Options{})
		switch s.Class {
		case FaultSensorSilent:
			p.SetBehavior("Sensor", "sample",
				BreakSensorBetween(s.InjectAt, s.Until, Silent, 0, healthySensor))
			p.SetBehavior("Monitor", "check", AgeMonitor("in", "v", sim.MS(25)))
		case FaultSensorNoise:
			p.SetBehavior("Sensor", "sample",
				BreakSensorBetween(s.InjectAt, s.Until, Noise, 9999, healthySensor))
			p.SetBehavior("Monitor", "check", RangeMonitor("in", "v", 0, 300, rte.ErrSensor))
		default:
			p.SetBehavior("Sensor", "sample", healthySensor)
			p.SetBehavior("Monitor", "check", func(c *rte.Context) {})
		}
		p.Run(horizon)
		res := Result{Scenario: s, Errors: p.Errors.Total()}
		res.DetectionLatency, res.Detected = DetectionLatency(p.Errors.Records(), rte.ErrSensor, s.InjectAt)
		res.Availability, _ = Availability(p.Trace, "Act.consume", sim.MS(10), s.InjectAt, horizon)
		res.RecoveryLatency, res.Recovered, _ = ServiceRecovery(p.Trace, "Act.consume", sim.MS(10), s.InjectAt, horizon)
		return res
	}
}

func TestCampaignSmoke(t *testing.T) {
	scs := Sweep([]FaultClass{FaultSensorSilent, FaultSensorNoise},
		[]sim.Time{sim.MS(50)}, sim.MS(60))
	results, err := RunCampaign(4, scs, campaignRun(sim.MS(300)))
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(results) != len(scs) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scs))
	}
	if _, err := RunCampaign(4, nil, campaignRun(sim.MS(300))); err == nil {
		t.Fatal("empty campaign: want explicit error, got nil")
	}
	for _, r := range results {
		if !r.Detected {
			t.Fatalf("%s not detected: %+v", r.Scenario.Name, r)
		}
		if r.Errors == 0 {
			t.Fatalf("%s reported no errors", r.Scenario.Name)
		}
	}
	// The silent scenario stops publishing for 60ms: availability dips but
	// service recovers. The noisy scenario keeps publishing: full service.
	if results[0].Availability >= 1 || !results[0].Recovered {
		t.Fatalf("silent scenario: %+v", results[0])
	}
	if results[1].Availability != 1 {
		t.Fatalf("noise scenario availability %v, want 1", results[1].Availability)
	}
}

// RunCampaign is generic over the scenario outcome: a study that
// samples series beside each Result gets both back slot-indexed, and an
// empty campaign is an error whatever the outcome type.
func TestRunCampaignSlotIndexed(t *testing.T) {
	scenarios := []Scenario{
		{Name: "a", InjectAt: sim.MS(1)},
		{Name: "b", InjectAt: sim.MS(2)},
		{Name: "c", InjectAt: sim.MS(3)},
	}
	type outcome struct {
		Result
		series []obs.Series
	}
	run := func(s Scenario) outcome {
		return outcome{Result{Scenario: s}, []obs.Series{{
			Name:   "m",
			Points: []obs.SeriesPoint{{At: int64(s.InjectAt), Value: float64(len(s.Name))}},
		}}}
	}
	out, err := RunCampaign(2, scenarios, run)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(out) != len(scenarios) {
		t.Fatalf("got %d outcomes for %d scenarios", len(out), len(scenarios))
	}
	if _, err := RunCampaign(2, nil, run); err == nil {
		t.Fatal("empty campaign: want explicit error, got nil")
	}
	for i, s := range scenarios {
		if out[i].Scenario.Name != s.Name {
			t.Fatalf("slot %d holds the outcome of %q, want %q", i, out[i].Scenario.Name, s.Name)
		}
		if got := out[i].series[0].Points[0].At; got != int64(s.InjectAt) {
			t.Fatalf("slot %d series at %d, want %d", i, got, int64(s.InjectAt))
		}
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	scs := Sweep(
		[]FaultClass{FaultSensorSilent, FaultSensorNoise, FaultSensorStuck},
		[]sim.Time{sim.MS(50), sim.MS(80)}, sim.MS(60))
	render := func(rs []Result) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprintf("%s det=%v/%v rec=%v/%v av=%.4f err=%d",
				r.Scenario.Name, r.Detected, r.DetectionLatency,
				r.Recovered, r.RecoveryLatency, r.Availability, r.Errors)
		}
		return out
	}
	run := func(workers int) []Result {
		rs, err := RunCampaign(workers, scs, campaignRun(sim.MS(300)))
		if err != nil {
			t.Fatalf("RunCampaign(workers=%d): %v", workers, err)
		}
		return rs
	}
	seq := render(run(1))
	par := render(run(8))
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d differs:\nworkers=1: %s\nworkers=8: %s", i, seq[i], par[i])
		}
	}
}
