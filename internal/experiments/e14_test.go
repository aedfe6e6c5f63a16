package experiments

import (
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

// shrunkE14 keeps the multi-failure campaign cheap for unit tests
// without changing its structure: same deployments, same scenario sets,
// shorter horizon (still long enough for two sequential ladder
// recoveries after a double kill).
func shrunkE14() E14Config {
	cfg := DefaultE14()
	cfg.Horizon = 600 * sim.Millisecond
	return cfg
}

func e14MeanKill(outcomes []e14Outcome) float64 {
	sum, n := 0.0, 0
	for _, o := range outcomes {
		if o.Scenario.Name != "fault-free" {
			sum += o.Availability
			n++
		}
	}
	return sum / float64(n)
}

func e14ByName(outcomes []e14Outcome) map[string]e14Outcome {
	out := map[string]e14Outcome{}
	for _, o := range outcomes {
		out[o.Scenario.Name] = o
	}
	return out
}

// Claim (a): the replicated observer strictly beats the single observer
// under the same kill campaign. The separator is killing the ECU that
// hosts both the actuator primary and the lone observer: nothing is left
// to report the fault, so the standby actuator is never promoted; the
// observer group keeps a live majority and cures it.
func TestE14ReplicatedObserverBeatsSingle(t *testing.T) {
	cfg := shrunkE14()
	single, replicated, err := e14ObserverDeployments()
	if err != nil {
		t.Fatal(err)
	}
	so, err := runE14(cfg, single, 1)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := runE14(cfg, replicated, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, outcomes := range map[string][]e14Outcome{"single": so, "replicated": ro} {
		if av := e14ByName(outcomes)["fault-free"].Availability; av < 0.99 {
			t.Errorf("%s fault-free availability %v", name, av)
		}
	}
	sKill, rKill := e14ByName(so)["ecu-kill:e3"], e14ByName(ro)["ecu-kill:e3"]
	if sKill.Detected || sKill.Failovers != 0 || sKill.Availability > 0.05 {
		t.Fatalf("single observer should be blind to its own ECU's kill: %+v", sKill)
	}
	if !rKill.Detected || rKill.Failovers != 1 || !rKill.Recovered {
		t.Fatalf("observer quorum did not cure the shared-ECU kill: %+v", rKill)
	}
	if rKill.Availability < 0.5 {
		t.Fatalf("cured kill availability %v, want majority of service kept", rKill.Availability)
	}
	if e14MeanKill(ro) <= e14MeanKill(so) {
		t.Fatalf("replicated mean kill %v not above single %v", e14MeanKill(ro), e14MeanKill(so))
	}
}

// Claim (b): hot switchover is an output unmute — measurably below the
// cold resume in the switchover-latency histogram, on the same kill.
func TestE14HotSwitchoverBeatsCold(t *testing.T) {
	cfg := shrunkE14()
	for _, tc := range []struct {
		mode model.ReplicaMode
		key  string
	}{
		{model.StandbyPassive, "passive"},
		{model.StandbyActive, "active"},
	} {
		dep, err := e14SwitchoverDeployment(tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		outcomes, err := runE14(cfg, dep, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := e14ByName(outcomes)["ecu-kill:e2"]
		if o.Failovers != 1 || !o.Recovered {
			t.Fatalf("%s: controller kill not cured: %+v", dep.name, o)
		}
		if cnt := o.SwitchCnt[tc.key]; cnt != 1 {
			t.Fatalf("%s: %d switchover latency samples, want 1", dep.name, cnt)
		}
		sum := o.SwitchSum[tc.key]
		if tc.mode == model.StandbyActive && sum != 0 {
			t.Fatalf("hot switchover latency %dns, want 0 (muted-value flush)", sum)
		}
		if tc.mode == model.StandbyPassive && sum <= 0 {
			t.Fatalf("cold switchover latency %dns, want > 0", sum)
		}
	}
}

// Claim (c): automatic placement finds a deployment whose measured k=2
// availability beats the hand-enumerated E13 shape at equal ECU count —
// the hand shape replicates only the controller, so every double kill
// zeroes it.
func TestE14AutoPlacementBeatsHandEnumeration(t *testing.T) {
	cfg := shrunkE14()
	hand, err := e14SwitchoverDeployment(model.StandbyPassive)
	if err != nil {
		t.Fatal(err)
	}
	auto, pl, err := e14AutoPlace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The search must fully cover the explicit k=2 fault model.
	if pl.Metrics.Survivability != 1 {
		t.Fatalf("auto placement Survivability %v, want 1", pl.Metrics.Survivability)
	}
	for _, name := range []string{"Sensor", "Ctrl", "Act", "Watch"} {
		if pl.Replicas[name] < 3 {
			t.Errorf("%s replicated x%d, want 3 to survive double kills", name, pl.Replicas[name])
		}
	}
	if pl.Modes["Watch"] != model.StandbyActive {
		t.Errorf("observer mode %v, want forced hot", pl.Modes["Watch"])
	}
	kOf := func(dep e14Deployment) (map[int]float64, map[int]float64) {
		outcomes, err := runE14(cfg, dep, 2)
		if err != nil {
			t.Fatal(err)
		}
		sums, worst, counts := map[int]float64{}, map[int]float64{}, map[int]int{}
		for _, o := range outcomes {
			k := 0
			if o.Scenario.Name != "fault-free" {
				k = 1
				for _, ch := range o.Scenario.Name {
					if ch == '+' {
						k++
					}
				}
			}
			sums[k] += o.Availability
			counts[k]++
			if w, ok := worst[k]; !ok || o.Availability < w {
				worst[k] = o.Availability
			}
		}
		for k := range sums {
			sums[k] /= float64(counts[k])
		}
		return sums, worst
	}
	handMean, _ := kOf(hand)
	autoMean, autoWorst := kOf(auto)
	if handMean[0] < 0.99 || autoMean[0] < 0.99 {
		t.Fatalf("fault-free availability: hand %v auto %v", handMean[0], autoMean[0])
	}
	if handMean[2] != 0 {
		t.Fatalf("hand-enumerated k=2 mean %v, want 0 (any pair takes an unreplicated stage)", handMean[2])
	}
	if autoMean[2] <= handMean[2] {
		t.Fatalf("auto k=2 mean %v not above hand %v", autoMean[2], handMean[2])
	}
	if autoWorst[2] <= 0 {
		t.Fatalf("auto k=2 worst availability %v, want > 0 (one surviving ECU carries the chain)", autoWorst[2])
	}
	if autoMean[1] <= handMean[1] {
		t.Fatalf("auto k=1 mean %v not above hand %v", autoMean[1], handMean[1])
	}
}

// The multi-failure campaign is deterministic: every E14 table renders
// identically at 1, 2 and 8 workers.
func TestE14Deterministic(t *testing.T) {
	cfg := shrunkE14()
	for _, study := range []func(E14Config) (*Table, error){E14Observer, E14Switchover, E14Placement} {
		sameAcrossWorkers(t, func(workers int) (*Table, error) {
			cfg := cfg
			cfg.Workers = workers
			return study(cfg)
		})
	}
}
