package experiments

import "testing"

// shrunkE13 keeps the sweep cheap for unit tests without changing its
// structure: same candidates, same scenario set, shorter horizon.
func shrunkE13() E13Config {
	cfg := DefaultE13()
	cfg.Horizon = 400 * 1000 * 1000
	cfg.InjectAt = 100 * 1000 * 1000
	return cfg
}

// The headline claims of the study, asserted on the real campaign: the
// redundant candidate strictly beats every non-redundant one on mean
// availability under ECU kills, its controller kill is actually cured by
// a measured replica switchover, and killing the standby's ECU is free.
func TestE13RedundancyBeatsFederation(t *testing.T) {
	runs, err := runE13(shrunkE13())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]e13Run{}
	meanKill := func(run e13Run) float64 {
		sum, n := 0.0, 0
		for _, o := range run.outcomes {
			if o.Scenario.Name != "fault-free" && o.Scenario.Name != "can-burst" {
				sum += o.Availability
				n++
			}
		}
		return sum / float64(n)
	}
	for _, run := range runs {
		byName[run.cand.name] = run
		// Fault-free, every candidate delivers full service.
		if av := run.outcomes[0].Availability; av < 0.99 {
			t.Errorf("%s fault-free availability %v", run.cand.name, av)
		}
	}
	red := byName["redundant-3"]
	for _, name := range []string{"integrated", "federated-2", "federated-3"} {
		if meanKill(byName[name]) >= meanKill(red) {
			t.Errorf("%s mean kill availability %v >= redundant %v",
				name, meanKill(byName[name]), meanKill(red))
		}
	}
	// The controller-ECU kill of the redundant candidate is the scenario
	// the whole stack exists for: detected, failed over exactly once by
	// the ladder, service recovered.
	var ctrlKill, standbyKill *e13Outcome
	for i := range red.outcomes {
		switch red.outcomes[i].Scenario.Name {
		case "ecu-kill:e2":
			ctrlKill = &red.outcomes[i]
		case "ecu-kill:e3":
			standbyKill = &red.outcomes[i]
		}
	}
	if ctrlKill == nil || standbyKill == nil {
		t.Fatal("kill scenarios missing from the redundant candidate")
	}
	if !ctrlKill.Detected || ctrlKill.Failovers != 1 || !ctrlKill.Recovered {
		t.Fatalf("controller kill not cured by failover: %+v", ctrlKill)
	}
	if ctrlKill.Availability < 0.5 {
		t.Fatalf("controller kill availability %v, want majority of service kept", ctrlKill.Availability)
	}
	// Same ECU count, no standby: federated-3 loses the same scenario.
	for _, o := range byName["federated-3"].outcomes {
		if o.Scenario.Name == "ecu-kill:e2" && o.Availability >= ctrlKill.Availability {
			t.Fatalf("federated-3 controller kill availability %v not below redundant %v",
				o.Availability, ctrlKill.Availability)
		}
	}
	// Killing the standby's own ECU costs nothing: the primary delivers.
	if standbyKill.Availability < 0.99 || standbyKill.Failovers != 0 {
		t.Fatalf("standby-ECU kill should be free: %+v", standbyKill)
	}
}

// The campaign is deterministic: identical tables across runs and worker
// counts.
func TestE13Deterministic(t *testing.T) {
	cfg := shrunkE13()
	sameAcrossWorkers(t, func(workers int) (*Table, error) {
		cfg := cfg
		cfg.Workers = workers
		return E13Availability(cfg)
	})
	c, err := E13Curve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 4 {
		t.Fatalf("curve rows = %d, want one per candidate", len(c.Rows))
	}
}
