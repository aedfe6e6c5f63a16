package experiments

import (
	"fmt"

	"autorte/internal/deploy"
	"autorte/internal/fault"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// E14 — fail-operational v2: the multi-failure study over the
// generalized redundancy layer. Where E13 compared deployment shapes
// under single ECU kills with one passive controller standby and one
// unreplicated observer, E14 measures the four generalizations of the
// follow-on work: hot (StandbyActive) standbys whose switchover is an
// output unmute, k-of-n survivability under concurrent ECU losses,
// automatic replica placement (deploy.PlaceReplicas) against the
// hand-enumerated shapes, and a replicated detection path where the
// staleness observer itself is a replica group voting through a
// majority quorum (health.Quorum) before the escalation ladder starts.

// E14Config parameterizes the multi-failure campaign.
type E14Config struct {
	Horizon  sim.Time
	InjectAt sim.Time
	// Workers bounds campaign parallelism (<= 0: GOMAXPROCS).
	Workers int
	Seed    uint64
}

// DefaultE14 is the published configuration. The horizon leaves room
// for two sequential ladder recoveries after a concurrent double kill.
func DefaultE14() E14Config {
	return E14Config{
		Horizon: 800 * sim.Millisecond, InjectAt: 150 * sim.Millisecond,
		Workers: 0, Seed: 14,
	}
}

// e14Deployment is one fully materialized alternative: standbys
// replicated and sited, mapping validated.
type e14Deployment struct {
	name string
	sys  *model.System
}

// e14System builds the E14 logical chain: a 10ms sensor feeding a
// controller feeding an actuator that acknowledges actuation, and a
// watchdog tapping all three streams (sensor value, command, ack) so a
// staleness verdict can blame the failing stage rather than the whole
// chain. Redundancy specs are applied per component; the caller
// replicates and maps.
func e14System(specs map[string]model.Redundancy) *model.System {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ifU := &model.PortInterface{
		Name: "IfU", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
	}
	ifA := &model.PortInterface{
		Name: "IfA", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "a", Type: model.UInt16}},
	}
	sys := &model.System{
		Name:       "e14",
		Interfaces: []*model.PortInterface{ifV, ifU, ifA},
		Components: []*model.SWC{
			{
				Name:  "Sensor",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			{
				Name: "Ctrl", ASIL: model.ASILD,
				Ports: []model.Port{
					{Name: "in", Direction: model.Required, Interface: ifV},
					{Name: "cmd", Direction: model.Provided, Interface: ifU},
				},
				Runnables: []model.Runnable{{
					Name: "law", WCETNominal: sim.US(40),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
					Writes:  []model.PortRef{{Port: "cmd", Elem: "u"}},
				}},
			},
			{
				Name: "Act",
				Ports: []model.Port{
					{Name: "in", Direction: model.Required, Interface: ifU},
					{Name: "out", Direction: model.Provided, Interface: ifA},
				},
				Runnables: []model.Runnable{{
					Name: "apply", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "u"},
					Reads:   []model.PortRef{{Port: "in", Elem: "u"}},
					Writes:  []model.PortRef{{Port: "out", Elem: "a"}},
				}},
			},
			{
				Name: "Watch",
				Ports: []model.Port{
					{Name: "tapV", Direction: model.Required, Interface: ifV},
					{Name: "tapU", Direction: model.Required, Interface: ifU},
					{Name: "tapA", Direction: model.Required, Interface: ifA},
				},
				Runnables: []model.Runnable{{
					Name: "check", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(5)},
					Reads: []model.PortRef{
						{Port: "tapV", Elem: "v"}, {Port: "tapU", Elem: "u"}, {Port: "tapA", Elem: "a"},
					},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
			{Name: "e3", Speed: 1, Buses: []string{"can0"}},
		},
		// 1 Mbit/s: the replica fan-out of a fully ×3-replicated chain
		// keeps every standby's traffic on the wire (hot standbys pay
		// real bus load), which would crowd a 500 kbit/s channel.
		Buses: []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 1_000_000}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Watch", ToPort: "tapV"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Watch", ToPort: "tapU"},
			{FromSWC: "Act", FromPort: "out", ToSWC: "Watch", ToPort: "tapA"},
		},
	}
	for _, c := range sys.Components {
		if r, ok := specs[c.Name]; ok {
			c.Redundancy = r
		}
	}
	return sys
}

// e14Deploy materializes one hand-enumerated deployment.
func e14Deploy(name string, specs map[string]model.Redundancy, mapping map[string]string) (e14Deployment, error) {
	out, err := deploy.Replicate(e14System(specs))
	if err != nil {
		return e14Deployment{}, fmt.Errorf("e14 %s: %w", name, err)
	}
	out.Mapping = map[string]string{}
	for swc, ecu := range mapping {
		out.Mapping[swc] = ecu
	}
	if err := out.Validate(); err != nil {
		return e14Deployment{}, fmt.Errorf("e14 %s: %w", name, err)
	}
	return e14Deployment{name: name, sys: out}, nil
}

// e14AutoPlace derives the auto-placed deployment: PlaceReplicas under
// an explicit k=2 fault model (any two of the three ECUs concurrently),
// Soft so the unreplicated seed is scorable and IncludeSingletons so
// every uncovered component is gradient. The observer is forced to hot
// standbys — a passive observer replica could not vote.
func e14AutoPlace(cfg E14Config) (e14Deployment, *deploy.Placement, error) {
	seed := e14System(nil)
	seed.Mapping = map[string]string{
		"Sensor": "e1", "Ctrl": "e2", "Act": "e3", "Watch": "e3",
	}
	cons := deploy.Constraints{
		Faults: deploy.FaultModel{
			MaxConcurrent: 2,
			Losses: []deploy.Loss{
				{Kind: deploy.LossECU, ECUs: []string{"e1"}},
				{Kind: deploy.LossECU, ECUs: []string{"e2"}},
				{Kind: deploy.LossECU, ECUs: []string{"e3"}},
			},
			Soft: true, IncludeSingletons: true,
		},
	}
	obj := deploy.Objective{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 100_000}
	pl, err := deploy.PlaceReplicas(seed, cons, obj, deploy.PlacementOptions{
		MaxReplicas:  3,
		ModesFor:     map[string][]model.ReplicaMode{"Watch": {model.StandbyActive}},
		DescendIters: 8,
	})
	if err != nil {
		return e14Deployment{}, nil, fmt.Errorf("e14 auto placement: %w", err)
	}
	if err := pl.System.Validate(); err != nil {
		return e14Deployment{}, nil, fmt.Errorf("e14 auto placement: %w", err)
	}
	return e14Deployment{name: "auto-placed", sys: pl.System}, pl, nil
}

// e14Outcome is one scored scenario of one deployment.
type e14Outcome struct {
	fault.Result
	// Failovers and failbacks across every replica group, and the
	// switchover latency histogram state per standby mode.
	Failovers uint64
	SwitchSum map[string]int64
	SwitchCnt map[string]uint64
}

// e14Scenarios builds the kill campaign: the fault-free baseline, every
// single ECU kill, and (up to maxConcurrent) every concurrent pair, in
// deterministic order. The returned map resolves each scenario to its
// kill set.
func e14Scenarios(cfg E14Config, ecus []string, maxConcurrent int) ([]fault.Scenario, map[string][]string) {
	kills := map[string][]string{}
	scenarios := []fault.Scenario{{
		Name: "fault-free", Class: fault.FaultECUKill,
		InjectAt: cfg.InjectAt, Until: cfg.InjectAt, // empty window: no fault armed
	}}
	add := func(set []string) {
		name := "ecu-kill:" + set[0]
		for _, e := range set[1:] {
			name += "+" + e
		}
		kills[name] = set
		scenarios = append(scenarios, fault.Scenario{
			Name: name, Class: fault.FaultECUKill,
			InjectAt: cfg.InjectAt, Until: sim.Infinity,
		})
	}
	for _, e := range ecus {
		add([]string{e})
	}
	if maxConcurrent >= 2 {
		for i := 0; i < len(ecus); i++ {
			for j := i + 1; j < len(ecus); j++ {
				add([]string{ecus[i], ecus[j]})
			}
		}
	}
	return scenarios, kills
}

// runE14 executes one deployment's campaign. Scenarios run in parallel;
// results are slot-indexed, so the output is deterministic.
func runE14(cfg E14Config, dep e14Deployment, maxConcurrent int) ([]e14Outcome, error) {
	scenarios, kills := e14Scenarios(cfg, usedECUs(dep.sys.Mapping), maxConcurrent)
	return fault.RunCampaign(cfg.Workers, scenarios, func(s fault.Scenario) e14Outcome {
		return runE14Scenario(cfg, dep, s, kills[s.Name])
	})
}

// runE14Scenario deploys one alternative, arms one kill set and measures
// the actuation service. Every stage primary is health-supervised, but —
// unlike E13 — no observer reports directly: each watchdog instance
// votes its blame into a per-subject quorum, and only majority agreement
// of the live observers feeds the error manager that drives the ladder.
// A single-instance observer degenerates to a majority of one, so the
// replicated and unreplicated detection paths are wired identically.
func runE14Scenario(cfg E14Config, dep e14Deployment, s fault.Scenario, kills []string) e14Outcome {
	fail := func(state string) e14Outcome {
		return e14Outcome{Result: fault.Result{Scenario: s, FinalState: state}}
	}
	sys := dep.sys.Clone()
	p, err := rte.Build(sys, rte.Options{})
	if err != nil {
		return fail("build error: " + err.Error())
	}
	attach := func(primary, runnable string, b rte.Behavior) {
		for _, name := range p.ReplicaGroup(primary) {
			p.MustBehavior(name, runnable, b)
		}
	}
	attach("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", 100) })
	attach("Ctrl", "law", func(c *rte.Context) {
		c.Write("cmd", "u", c.Read("in", "v")) //autovet:allow e2eflow E14 studies ECU loss, not channel tampering; E2E qualification is E12's subject
	})
	attach("Act", "apply", func(c *rte.Context) {
		c.Write("out", "a", c.Read("in", "u")) //autovet:allow e2eflow actuation ack mirrors the command for the watchdog's liveness tap
	})
	// One quorum per supervised stage, all sharing the watchdog replica
	// group as electorate.
	observers := p.ReplicaGroup("Watch")
	quorums := map[string]*health.Quorum{}
	for _, subject := range []string{"Sensor", "Ctrl", "Act"} {
		q, err := health.NewQuorum(p, subject, observers, health.QuorumOptions{})
		if err != nil {
			return fail("quorum error: " + err.Error())
		}
		quorums[subject] = q
	}
	// Each watchdog instance votes dependency-ordered blame: a stale
	// sensor stream indicts the sensor (the downstream silence is just
	// consequence), a fresh sensor with a stale command indicts the
	// controller, and fresh inputs with a stale ack indict the actuator.
	// Downstream stages get an abstention while upstream is indicted.
	stale := func(age sim.Duration) bool { return age >= 0 && age > sim.MS(25) }
	for _, w := range observers {
		w := w
		p.MustBehavior(w, "check", func(c *rte.Context) {
			vS, uS, aS := stale(c.Age("tapV", "v")), stale(c.Age("tapU", "u")), stale(c.Age("tapA", "a"))
			switch {
			case vS:
				quorums["Sensor"].Vote(w, health.VerdictFault, "stale sensor stream")
				quorums["Ctrl"].Vote(w, health.VerdictSuspect, "")
				quorums["Act"].Vote(w, health.VerdictSuspect, "")
			case uS:
				quorums["Sensor"].Vote(w, health.VerdictOK, "")
				quorums["Ctrl"].Vote(w, health.VerdictFault, "stale command stream")
				quorums["Act"].Vote(w, health.VerdictSuspect, "")
			case aS:
				quorums["Sensor"].Vote(w, health.VerdictOK, "")
				quorums["Ctrl"].Vote(w, health.VerdictOK, "")
				quorums["Act"].Vote(w, health.VerdictFault, "stale actuation ack")
			default:
				quorums["Sensor"].Vote(w, health.VerdictOK, "")
				quorums["Ctrl"].Vote(w, health.VerdictOK, "")
				quorums["Act"].Vote(w, health.VerdictOK, "")
			}
		})
	}
	m := health.NewMonitor(p, health.MonitorOptions{})
	for _, stage := range []struct{ subject, runnable string }{
		{"Sensor", "sample"}, {"Ctrl", "law"}, {"Act", "apply"},
	} {
		subject, runnable := stage.subject, stage.runnable
		m.MustProtect(subject, stagePolicy(runnable))
	}
	for _, e := range kills {
		if err := fault.KillECUAt(p, e, s.InjectAt); err != nil {
			return fail("arm error: " + err.Error())
		}
	}
	p.Run(cfg.Horizon)

	out := e14Outcome{Result: scoreActuation(p, s, cfg.Horizon), SwitchSum: map[string]int64{}, SwitchCnt: map[string]uint64{}}
	for _, subject := range []string{"Sensor", "Ctrl", "Act"} {
		out.Failovers += p.Metrics.Counter("deploy_failovers_total", "",
			obs.Label{Key: "swc", Value: subject}).Value()
	}
	for _, mode := range []model.ReplicaMode{model.StandbyPassive, model.StandbyActive} {
		h := p.Metrics.Histogram("deploy_switchover_latency_ns", "",
			obs.Label{Key: "mode", Value: mode.String()})
		out.SwitchSum[mode.String()] = h.Sum()
		out.SwitchCnt[mode.String()] = h.Count()
	}
	return out
}

// e14ObserverDeployments builds the detection-study pair: the same
// redundant chain behind a single observer and behind a hot 3-instance
// observer group spread over all ECUs.
func e14ObserverDeployments() (single, replicated e14Deployment, err error) {
	single, err = e14Deploy("single-observer",
		map[string]model.Redundancy{
			"Ctrl": {Replicas: 2, Mode: model.StandbyPassive},
			"Act":  {Replicas: 2, Mode: model.StandbyPassive},
		},
		map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Ctrl#1": "e3",
			"Act": "e3", "Act#1": "e1", "Watch": "e3",
		})
	if err != nil {
		return single, replicated, err
	}
	replicated, err = e14Deploy("replicated-observer",
		map[string]model.Redundancy{
			"Ctrl":  {Replicas: 2, Mode: model.StandbyPassive},
			"Act":   {Replicas: 2, Mode: model.StandbyPassive},
			"Watch": {Replicas: 3, Mode: model.StandbyActive},
		},
		map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Ctrl#1": "e3",
			"Act": "e3", "Act#1": "e1",
			"Watch": "e3", "Watch#1": "e1", "Watch#2": "e2",
		})
	return single, replicated, err
}

// E14Observer contrasts the single staleness observer (E13's ceiling)
// with a replicated observer group voting through the majority quorum,
// on an otherwise identical redundant deployment.
func E14Observer(cfg E14Config) (*Table, error) {
	single, replicated, err := e14ObserverDeployments()
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title: "E14 replicated detection: observer quorum vs the single-observer ceiling",
		Columns: []string{"deployment", "scenario", "detected", "failovers",
			"recovered", "availability"},
		Notes: []string{
			"same redundant chain, same kills; only the detection path differs.",
			"killing e3 takes the actuator AND the lone observer: nothing reports, the",
			"standby actuator is never promoted. The 3-instance hot observer group keeps",
			"a live majority on the surviving ECUs, blames the actuator, and the ladder's",
			"failover rung restores the service — detection is no longer the ceiling.",
		},
	}
	for _, dep := range []e14Deployment{single, replicated} {
		outcomes, err := runE14(cfg, dep, 1)
		if err != nil {
			return nil, err
		}
		for _, o := range outcomes {
			tab.Add(dep.name, o.Scenario.Name, o.Detected, o.Failovers,
				o.Recovered, o.Availability)
		}
	}
	return tab, nil
}

// e14SwitchoverDeployment builds the minimal two-replica controller
// chain the switchover study (and the hand-enumerated placement
// baseline — E13's redundant-3 shape) deploys.
func e14SwitchoverDeployment(mode model.ReplicaMode) (e14Deployment, error) {
	name := "cold-standby"
	if mode == model.StandbyActive {
		name = "hot-standby"
	}
	return e14Deploy(name,
		map[string]model.Redundancy{"Ctrl": {Replicas: 2, Mode: mode}},
		map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Ctrl#1": "e3",
			"Act": "e1", "Watch": "e1",
		})
}

// E14Switchover measures the hot-vs-cold switchover claim: a passive
// standby resumes and waits for the next production; a hot standby was
// producing all along, so promotion just unmutes its suppressed outputs.
func E14Switchover(cfg E14Config) (*Table, error) {
	tab := &Table{
		Title:   "E14 switchover latency: hot standby unmute vs passive resume",
		Columns: []string{"deployment", "scenario", "switchovers", "mode", "latency (us)", "availability"},
		Notes: []string{
			"latency: fail-over to the promoted instance's first delivered output,",
			"from the deploy_switchover_latency_ns histogram. The hot standby's muted",
			"last value flushes at the switch itself (~0); the cold standby pays the",
			"resume plus the wait for the next end-to-end production.",
		},
	}
	for _, mode := range []model.ReplicaMode{model.StandbyPassive, model.StandbyActive} {
		dep, err := e14SwitchoverDeployment(mode)
		if err != nil {
			return nil, err
		}
		outcomes, err := runE14(cfg, dep, 1)
		if err != nil {
			return nil, err
		}
		for _, o := range outcomes {
			if o.Scenario.Name != "ecu-kill:e2" {
				continue // only the controller kill exercises the switchover
			}
			cnt := o.SwitchCnt[mode.String()]
			lat := "-"
			if cnt > 0 {
				lat = fmt.Sprintf("%.1f", float64(o.SwitchSum[mode.String()])/float64(cnt)/1000)
			}
			tab.Add(dep.name, o.Scenario.Name, cnt, mode.String(), lat, o.Availability)
		}
	}
	return tab, nil
}

// E14Placement pits deploy.PlaceReplicas against the best
// hand-enumerated E13-style shape at equal ECU count, under the full
// k-of-n campaign: availability per number of concurrent ECU losses —
// the k-of-n availability curve.
func E14Placement(cfg E14Config) (*Table, error) {
	hand, err := e14SwitchoverDeployment(model.StandbyPassive)
	if err != nil {
		return nil, err
	}
	hand.name = "hand-enumerated"
	auto, pl, err := e14AutoPlace(cfg)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "E14 k-of-n availability curve: auto-placed replicas vs hand enumeration",
		Columns: []string{"deployment", "ecus", "instances", "k", "scenarios", "mean avail", "worst avail"},
		Notes: []string{
			"k concurrent ECU losses out of 3, same campaign for both deployments.",
			"hand enumeration replicates only the controller: any double kill (and any",
			"single kill of an unreplicated stage) zeroes the service. The placement",
			"search, scoring the k=2 fault model through the survivability objective,",
			"replicates every stage across all three ECUs, so one surviving ECU still",
			"carries the whole chain after the ladder promotes its standbys in turn.",
		},
	}
	spec := "auto spec:"
	for _, name := range []string{"Sensor", "Ctrl", "Act", "Watch"} {
		spec += fmt.Sprintf(" %s×%d(%s)", name, pl.Replicas[name], pl.Modes[name])
	}
	tab.Notes = append(tab.Notes, spec)
	for _, dep := range []e14Deployment{hand, auto} {
		outcomes, err := runE14(cfg, dep, 2)
		if err != nil {
			return nil, err
		}
		instances := len(dep.sys.Components)
		byK := map[int][]e14Outcome{}
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
			byK[k] = append(byK[k], o)
		}
		for k := 0; k <= 2; k++ {
			os := byK[k]
			if len(os) == 0 {
				continue
			}
			sum, worst := 0.0, 1.0
			for _, o := range os {
				sum += o.Availability
				if o.Availability < worst {
					worst = o.Availability
				}
			}
			tab.Add(dep.name, len(usedECUs(dep.sys.Mapping)), instances, k,
				len(os), sum/float64(len(os)), worst)
		}
	}
	return tab, nil
}
