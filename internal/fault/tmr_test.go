package fault

import (
	"fmt"
	"testing"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// tmrSystem: three replicated sensors feeding a voter on one ECU; the
// voter publishes the voted value to a consumer.
func tmrSystem() *model.System {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	sys := &model.System{
		Name:       "tmr",
		Interfaces: []*model.PortInterface{ifV},
		ECUs:       []*model.ECU{{Name: "e1", Speed: 1}},
		Mapping:    map[string]string{},
	}
	voter := &model.SWC{
		Name: "Voter",
		Ports: []model.Port{
			{Name: "in0", Direction: model.Required, Interface: ifV},
			{Name: "in1", Direction: model.Required, Interface: ifV},
			{Name: "in2", Direction: model.Required, Interface: ifV},
			{Name: "out", Direction: model.Provided, Interface: ifV},
		},
		Runnables: []model.Runnable{{
			Name: "vote", WCETNominal: sim.US(30),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(1)},
			Reads: []model.PortRef{
				{Port: "in0", Elem: "v"}, {Port: "in1", Elem: "v"}, {Port: "in2", Elem: "v"},
			},
			Writes: []model.PortRef{{Port: "out", Elem: "v"}},
		}},
	}
	sink := &model.SWC{
		Name:  "Consumer",
		Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifV}},
		Runnables: []model.Runnable{{
			Name: "use", WCETNominal: sim.US(10),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
			Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
		}},
	}
	sys.Components = append(sys.Components, voter, sink)
	sys.Connectors = append(sys.Connectors,
		model.Connector{FromSWC: "Voter", FromPort: "out", ToSWC: "Consumer", ToPort: "in"})
	sys.Mapping["Voter"] = "e1"
	sys.Mapping["Consumer"] = "e1"
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("Sensor%d", i)
		sys.Components = append(sys.Components, &model.SWC{
			Name:  name,
			Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
			Runnables: []model.Runnable{{
				Name: "sample", WCETNominal: sim.US(20),
				Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
				Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
			}},
		})
		sys.Connectors = append(sys.Connectors, model.Connector{
			FromSWC: name, FromPort: "out", ToSWC: "Voter", ToPort: fmt.Sprintf("in%d", i),
		})
		sys.Mapping[name] = "e1"
	}
	return sys
}

func TestVoterOutvotesDriftingReplica(t *testing.T) {
	sys := tmrSystem()
	p := rte.MustBuild(sys, rte.Options{})
	healthy := func(c *rte.Context) float64 { return 100 }
	p.SetBehavior("Sensor0", "sample", DriftSensor(sim.MS(50), 2000, healthy)) // drifts fast
	p.SetBehavior("Sensor1", "sample", DriftSensor(sim.Infinity, 0, healthy))  // healthy
	p.SetBehavior("Sensor2", "sample", DriftSensor(sim.Infinity, 0, healthy))  // healthy
	vote, err := Voter([]Replica{{"in0", "v"}, {"in1", "v"}, {"in2", "v"}}, "out", "v", 5)
	if err != nil {
		t.Fatal(err)
	}
	p.SetBehavior("Voter", "vote", vote)
	var worst float64
	p.SetBehavior("Consumer", "use", func(c *rte.Context) {
		v := c.Read("in", "v")
		if d := v - 100; d > worst || -d > worst {
			if d < 0 {
				d = -d
			}
			worst = d
		}
	})
	p.Run(sim.MS(300))
	// The median out-votes the drifter: consumer never sees the drift.
	if worst > 1 {
		t.Fatalf("voted output deviated by %v; drift leaked through", worst)
	}
	// And the deviation is diagnosed through the error path.
	if p.Errors.CountKind(rte.ErrSensor) == 0 {
		t.Fatal("drifting replica never diagnosed")
	}
}

func TestVoterWithTwoReplicasStillVotes(t *testing.T) {
	// Degraded 2-replica vote: median of two = higher one; it must still
	// publish and diagnose disagreement.
	sys := tmrSystem()
	p := rte.MustBuild(sys, rte.Options{})
	healthy := func(c *rte.Context) float64 { return 50 }
	p.SetBehavior("Sensor0", "sample", DriftSensor(sim.Infinity, 0, healthy))
	p.SetBehavior("Sensor1", "sample", DriftSensor(sim.Infinity, 0, healthy))
	p.SetBehavior("Sensor2", "sample", func(c *rte.Context) {}) // replica dead from start
	vote, err := Voter([]Replica{{"in0", "v"}, {"in1", "v"}, {"in2", "v"}}, "out", "v", 5)
	if err != nil {
		t.Fatal(err)
	}
	p.SetBehavior("Voter", "vote", vote)
	var got float64
	p.SetBehavior("Consumer", "use", func(c *rte.Context) { got = c.Read("in", "v") })
	p.Run(sim.MS(100))
	if got != 50 {
		t.Fatalf("2-replica vote output %v, want 50", got)
	}
}

func TestVoterValidation(t *testing.T) {
	if _, err := Voter([]Replica{{"a", "v"}}, "out", "v", 1); err == nil {
		t.Fatal("single replica accepted")
	}
	if _, err := Voter([]Replica{{"a", "v"}, {"b", "v"}}, "out", "v", -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}
