package core

import (
	"fmt"
	"sort"

	"autorte/internal/can"
	"autorte/internal/contract"
	"autorte/internal/e2e"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

// refVerify is the verifier's independent reference: the straight-line
// derivation of a Report, sequential and uncached. It builds the routes
// with vfb.Resolve, rejects an unmapped component that has CPU demand,
// builds the task sets with taskset.Build, then
// analyzes every ECU, bus, the contracts and every chain in the verifier's
// job order, returning the first error. Each chain stage runs its own
// analysis of its ECU's task set or its bus's frame set instead of reading
// one resolved per pass. Tests hold Verify and Reverify to it.
func refVerify(sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Report, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		return nil, err
	}
	routes, err := vfb.Resolve(sys)
	if err != nil {
		return nil, err
	}
	// A component with CPU demand must be hosted somewhere: an unmapped
	// one has no ECU to be analyzed on. Passive standbys have no demand.
	for _, comp := range sys.Components {
		if _, ok := sys.Mapping[comp.Name]; !ok && !comp.PassiveStandby() {
			return nil, fmt.Errorf("core: component %s is not mapped", comp.Name)
		}
	}
	taskSets, warnings := taskset.Build(sys)
	rep := &Report{Warnings: warnings}
	var ecus []string
	for e := range taskSets {
		ecus = append(ecus, e)
	}
	sort.Strings(ecus)
	// The routes crossing each bus, in resolve order; a gatewayed route
	// under both of its buses.
	byBus := map[string][]vfb.Route{}
	for _, r := range routes {
		for _, bus := range []string{r.Bus, r.Bus2} {
			if bus != "" && r.Crosses(bus) {
				byBus[bus] = append(byBus[bus], r)
			}
		}
	}

	rep.ECUs = make([]ECUReport, 0, len(ecus))
	for _, ecu := range ecus {
		tasks := taskSets[ecu]
		ok, results, err := sched.Schedulable(tasks)
		if err != nil {
			return nil, err
		}
		rep.ECUs = append(rep.ECUs, ECUReport{
			Name: ecu, Utilization: sched.TotalUtilization(tasks),
			Results: results, Schedulable: ok,
		})
	}
	for _, b := range sys.Buses {
		if len(byBus[b.Name]) == 0 {
			continue
		}
		br, err := refBus(sys, b, byBus[b.Name], opts)
		if err != nil {
			return nil, err
		}
		rep.Buses = append(rep.Buses, br)
	}
	if contracts != nil {
		if rep.Contracts, err = contract.CheckSystem(sys, contracts); err != nil {
			return nil, err
		}
	}
	rep.Chains = make([]ChainReport, len(sys.Constraints))
	for i, lc := range sys.Constraints {
		cr := ChainReport{Name: lc.Name, Budget: lc.Budget}
		if bound, err := refChainBound(sys, lc, taskSets, byBus, opts); err != nil {
			cr.Err = err.Error()
		} else {
			cr.Bound = bound
			cr.OK = bound <= lc.Budget
		}
		rep.Chains[i] = cr
	}
	return rep, nil
}

// refCANMessages is the frame set the RTE puts on a CAN bus: periodic
// routes in SignalName order, IDs assigned by position, each DLC the
// signal's bytes plus, under E2E, the 2-byte P01 header. A frame past 8
// bytes is an error, named as the RTE names its segment.
func refCANMessages(bus string, routes []vfb.Route, opts rte.Options) ([]*can.Message, error) {
	sorted := append([]vfb.Route(nil), routes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SignalName < sorted[j].SignalName })
	var out []*can.Message
	for i, r := range sorted {
		dlc := (r.Bits + 7) / 8
		if opts.E2E != nil {
			dlc += 2
		}
		if dlc > 8 {
			name := r.SignalName
			if r.Via != "" && r.Bus == bus {
				name += "~1"
			} else if r.Via != "" {
				name += "~2"
			}
			return nil, fmt.Errorf("rte: bus %s: frame %s: DLC %d outside 0..8", bus, name, dlc)
		}
		if r.Period <= 0 {
			continue
		}
		out = append(out, &can.Message{
			Name: r.SignalName, ID: uint32(0x100 + i),
			DLC: dlc, Period: sim.Duration(r.Period),
		})
	}
	return out, nil
}

// refCANConfig is a CAN bus's channel: its bit rate, with the identifier
// format the options select.
func refCANConfig(b *model.Bus, opts rte.Options) can.Config {
	return can.Config{BitRate: b.BitRate, Extended: opts.CANConfig.Extended}
}

// refFlexRayConfig is the FlexRay cycle the RTE runs: the configured one,
// else 8 static slots of 100µs, 40 minislots of 5µs and a 100µs NIT.
func refFlexRayConfig(opts rte.Options) flexray.Config {
	if opts.FlexRayConfig.CycleLength() != 0 {
		return opts.FlexRayConfig
	}
	return flexray.Config{
		StaticSlots: 8, SlotLength: sim.US(100),
		Minislots: 40, MinislotLength: sim.US(5), NIT: sim.US(100),
	}
}

// refTTP is a TTP bus's slot length and its node count.
func refTTP(sys *model.System, bus string, opts rte.Options) (sim.Duration, int) {
	slot := opts.TTPSlotLength
	if slot == 0 {
		slot = sim.US(250)
	}
	nodes := 0
	for _, e := range sys.ECUs {
		for _, eb := range e.Buses {
			if eb == bus {
				nodes++
			}
		}
	}
	return slot, nodes
}

// refFlexRay synthesizes a FlexRay bus's static schedule, by signal.
func refFlexRay(routes []vfb.Route, opts rte.Options) (map[string]flexray.Assignment, error) {
	var sigs []flexray.Signal
	for _, r := range routes {
		if r.Period > 0 {
			sigs = append(sigs, flexray.Signal{Name: r.SignalName, Period: sim.Duration(r.Period)})
		}
	}
	as, err := flexray.Synthesize(refFlexRayConfig(opts), sigs)
	if err != nil {
		return nil, err
	}
	out := map[string]flexray.Assignment{}
	for _, a := range as {
		out[a.Signal.Name] = a
	}
	return out, nil
}

func refBus(sys *model.System, b *model.Bus, routes []vfb.Route, opts rte.Options) (BusReport, error) {
	br := BusReport{Name: b.Name, Kind: b.Kind, Schedulable: true}
	switch b.Kind {
	case model.BusCAN:
		cfg := refCANConfig(b, opts)
		msgs, err := refCANMessages(b.Name, routes, opts)
		if err != nil {
			return br, err
		}
		rs, err := can.Analyze(cfg, msgs)
		if err != nil {
			return br, err
		}
		br.Load = can.TotalUtilization(cfg, msgs)
		for _, r := range rs {
			if !r.Schedulable {
				br.Schedulable = false
				br.Detail = fmt.Sprintf("%s unschedulable (WCRT %v)", r.Message.Name, r.WCRT)
			}
		}
	case model.BusFlexRay:
		if _, err := refFlexRay(routes, opts); err != nil {
			br.Schedulable = false
			br.Detail = err.Error()
		}
	case model.BusTTP:
		slot, nodes := refTTP(sys, b.Name, opts)
		roundLen := sim.Duration(nodes) * slot
		for _, r := range routes {
			if r.Period > 0 && sim.Duration(r.Period) < roundLen {
				br.Schedulable = false
				br.Detail = fmt.Sprintf("%s period %v below TDMA round %v", r.SignalName, sim.Duration(r.Period), roundLen)
			}
		}
	}
	return br, nil
}

// refChainBound composes a constraint's bound from e2e stages: the source
// runnable(s) writing chain[0] in reverse declaration order, then per hop
// an internal runnable (after its sampling delay when periodic) or the bus
// segments of the connector's route, found by scanning the buses in name
// order.
func refChainBound(sys *model.System, lc model.LatencyConstraint, taskSets map[string][]sched.Task,
	byBus map[string][]vfb.Route, opts rte.Options) (sim.Duration, error) {
	var stages []e2e.Stage
	task := func(comp, run string) {
		name := comp + "." + run
		stages = append(stages, &e2e.TaskStage{Name: name, Tasks: taskSets[sys.Mapping[comp]], Target: name})
	}
	src := sys.Component(lc.Chain[0].SWC)
	for i := len(src.Runnables) - 1; i >= 0; i-- {
		run := &src.Runnables[i]
		for j := len(run.Writes) - 1; j >= 0; j-- {
			if run.Writes[j].Port == lc.Chain[0].Port {
				task(src.Name, run.Name)
			}
		}
	}
	// fail bounds the stages composed so far: an error among them comes
	// first, as it would in a stage-by-stage evaluation.
	fail := func(err error) (sim.Duration, error) {
		if _, serr := e2e.ChainBound(stages); serr != nil {
			return 0, serr
		}
		return 0, err
	}
	for i := 0; i+1 < len(lc.Chain); i++ {
		a, b := lc.Chain[i], lc.Chain[i+1]
		if a.SWC == b.SWC {
			comp := sys.Component(a.SWC)
			var run *model.Runnable
			for k := range comp.Runnables {
				r := &comp.Runnables[k]
				reads, writes := r.Trigger.Port == a.Port, false
				for _, rr := range r.Reads {
					reads = reads || rr.Port == a.Port
				}
				for _, w := range r.Writes {
					writes = writes || w.Port == b.Port
				}
				if reads && writes {
					run = r
					break
				}
			}
			if run == nil {
				return fail(fmt.Errorf("chain %s: no runnable in %s from %s to %s", lc.Name, a.SWC, a.Port, b.Port))
			}
			if run.Trigger.Kind == model.TimingEvent {
				stages = append(stages, &e2e.SamplingStage{Name: a.SWC + "." + run.Name, Period: run.Trigger.Period})
			}
			task(a.SWC, run.Name)
			continue
		}
		var conn *model.Connector
		for k := range sys.Connectors {
			c := &sys.Connectors[k]
			if c.FromSWC == a.SWC && c.FromPort == a.Port && c.ToSWC == b.SWC && c.ToPort == b.Port {
				conn = c
				break
			}
		}
		if conn == nil {
			return fail(fmt.Errorf("no connector %s.%s -> %s.%s", a.SWC, a.Port, b.SWC, b.Port))
		}
		if sys.Mapping[a.SWC] == sys.Mapping[b.SWC] {
			continue
		}
		var busNames []string
		for name := range byBus {
			busNames = append(busNames, name)
		}
		sort.Strings(busNames)
		var signal *vfb.Route
		for _, name := range busNames {
			for k := range byBus[name] {
				if r := &byBus[name][k]; signal == nil && r.Conn == *conn {
					signal = r
				}
			}
		}
		if signal == nil {
			return fail(fmt.Errorf("chain %s: no route for connector %s.%s -> %s.%s", lc.Name, a.SWC, a.Port, b.SWC, b.Port))
		}
		segments := []string{signal.Bus}
		if signal.Via != "" {
			segments = append(segments, signal.Bus2)
		}
		for _, name := range segments {
			// Bus stages bound one after the other, so that a bus error
			// carries the chain's name and earlier stage errors win.
			if _, err := e2e.ChainBound(stages); err != nil {
				return 0, err
			}
			st, err := refBusStage(sys, name, signal, byBus[name], opts)
			if err != nil {
				return 0, fmt.Errorf("chain %s: %w", lc.Name, err)
			}
			if _, err := e2e.ChainBound(append(stages, st)); err != nil {
				return 0, fmt.Errorf("chain %s: %w", lc.Name, err)
			}
			stages = append(stages, st)
		}
	}
	return e2e.ChainBound(stages)
}

// refBusStage is the e2e stage of one bus segment of a route.
func refBusStage(sys *model.System, name string, signal *vfb.Route, routes []vfb.Route, opts rte.Options) (e2e.Stage, error) {
	bus := sys.BusByName(name)
	switch bus.Kind {
	case model.BusCAN:
		msgs, err := refCANMessages(name, routes, opts)
		if err != nil {
			return nil, err
		}
		return &e2e.CANStage{
			Name: name, Cfg: refCANConfig(bus, opts),
			Messages: msgs, Target: signal.SignalName,
		}, nil
	case model.BusFlexRay:
		as, err := refFlexRay(routes, opts)
		if err != nil {
			return nil, err
		}
		a, ok := as[signal.SignalName]
		if !ok {
			return nil, fmt.Errorf("signal %s not in static schedule of %s", signal.SignalName, name)
		}
		cfg := refFlexRayConfig(opts)
		return &e2e.SamplingStage{Name: name, Period: sim.Duration(a.Repetition) * cfg.CycleLength(), Transfer: sim.Duration(a.SlotID) * cfg.SlotLength}, nil
	default:
		slot, nodes := refTTP(sys, name, opts)
		return &e2e.SamplingStage{Name: name, Period: sim.Duration(nodes) * slot, Transfer: slot}, nil
	}
}
