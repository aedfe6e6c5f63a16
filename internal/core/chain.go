package core

import (
	"fmt"

	"autorte/internal/e2e"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/sim"
	"autorte/internal/vfb"
)

// chainState is one latency constraint: its stage plan and its verdict
// under the current mapping.
type chainState struct {
	steps []chainStep
	rep   ChainReport
}

// stepKind selects what a chainStep bounds.
type stepKind uint8

const (
	// stepTask is a runnable's response on its hosting ECU.
	stepTask stepKind = iota
	// stepSample is a periodic sampler's wait for its next release.
	stepSample
	// stepComm is a connector hop: nothing when both ends share an ECU,
	// else its route's bus segments.
	stepComm
	// stepFail is a mapping-independent error the bound stops at.
	stepFail
)

// chainStep is one stage of a constraint chain's bound, resolved once from
// the VFB wiring: which task, sampler or connector the stage analyzes.
// Which ECU hosts a task and which buses carry a connector depend on the
// mapping and are read when the chain is evaluated.
type chainStep struct {
	kind   stepKind
	comp   string       // task: the component running the task; comm: the provider
	to     string       // comm: the requirer
	name   string       // task: the task name; sample: the stage name
	period sim.Duration // sample
	tmpl   int          // comm: the template of the route bounded, -1 when none
	err    error        // fail, and comm without a template
}

// planChains resolves every constraint's stage plan into inc.chains. The
// stages follow package e2e's composition: the source runnable(s) writing
// chain[0] — in reverse declaration order, the order the prepend-style
// composition evaluated them in — then, hop by hop, an internal runnable
// (preceded by its sampling delay when it is periodic) or a connector.
// Plans are mapping-independent, so they are built once, with the state.
func (inc *Incremental) planChains() {
	sys := inc.sys
	compIdx := make(map[string]int, len(sys.Components))
	for i, c := range sys.Components {
		compIdx[c.Name] = i
	}
	connIdx := make(map[model.Connector]int, len(sys.Connectors))
	for i := len(sys.Connectors) - 1; i >= 0; i-- {
		connIdx[sys.Connectors[i]] = i // the first of duplicates wins
	}
	// A connector routes as its lowest-named signal.
	route := make([]int, len(sys.Connectors))
	for i := range route {
		route[i] = -1
	}
	for ti, t := range inc.tmpls {
		if r := route[t.Connector]; r < 0 || t.SignalName < inc.tmpls[r].SignalName {
			route[t.Connector] = ti
		}
	}
	for i := range sys.Constraints {
		lc := &sys.Constraints[i]
		// One source stage and at most two stages per hop.
		steps := make([]chainStep, 0, 2*len(lc.Chain))
		task := func(comp, run int) chainStep {
			return chainStep{kind: stepTask, comp: sys.Components[comp].Name, name: inc.protos[comp][run].Name}
		}
		src := compIdx[lc.Chain[0].SWC]
		runs := sys.Components[src].Runnables
		for r := len(runs) - 1; r >= 0; r-- {
			for w := len(runs[r].Writes) - 1; w >= 0; w-- {
				if runs[r].Writes[w].Port == lc.Chain[0].Port {
					steps = append(steps, task(src, r))
				}
			}
		}
		for h := 0; h+1 < len(lc.Chain); h++ {
			a, b := lc.Chain[h], lc.Chain[h+1]
			if a.SWC == b.SWC {
				// Internal hop: the runnable consuming a.Port and producing
				// b.Port.
				ci := compIdx[a.SWC]
				run := findInternalRunnable(sys.Components[ci], a.Port, b.Port)
				if run < 0 {
					steps = append(steps, chainStep{kind: stepFail,
						err: fmt.Errorf("chain %s: no runnable in %s from %s to %s", lc.Name, a.SWC, a.Port, b.Port)})
					break
				}
				st := task(ci, run)
				if trig := sys.Components[ci].Runnables[run].Trigger; trig.Kind == model.TimingEvent {
					// Periodic sampler: waits up to one period, then executes.
					steps = append(steps, chainStep{kind: stepSample, name: st.name, period: trig.Period})
				}
				steps = append(steps, st)
				continue
			}
			ci, ok := connIdx[model.Connector{FromSWC: a.SWC, FromPort: a.Port, ToSWC: b.SWC, ToPort: b.Port}]
			if !ok {
				steps = append(steps, chainStep{kind: stepFail,
					err: fmt.Errorf("no connector %s.%s -> %s.%s", a.SWC, a.Port, b.SWC, b.Port)})
				break
			}
			st := chainStep{kind: stepComm, comp: a.SWC, to: b.SWC, tmpl: route[ci]}
			if st.tmpl < 0 {
				st.err = fmt.Errorf("chain %s: no route for connector %s.%s -> %s.%s", lc.Name, a.SWC, a.Port, b.SWC, b.Port)
			}
			steps = append(steps, st)
		}
		inc.chains[i].steps = steps
	}
}

// evalChain re-evaluates constraint i against the current state.
func (inc *Incremental) evalChain(root *obs.Span, i int) {
	lc := &inc.sys.Constraints[i]
	defer inc.p.stage(root, "verify/chain", lc.Name)()
	cr := ChainReport{Name: lc.Name, Budget: lc.Budget}
	if bound, err := inc.chainBound(lc.Name, inc.chains[i].steps); err != nil {
		cr.Err = err.Error()
	} else {
		cr.Bound = bound
		cr.OK = bound <= lc.Budget
	}
	inc.chains[i].rep = cr
}

// chainBound composes the analytic end-to-end bound of a chain's stages
// with jitter propagation (package e2e semantics: each stage's bound
// feeds the next stage's release jitter; sampling stages absorb it).
// Every stage reads the ECU and bus analyses the pass already resolved.
func (inc *Incremental) chainBound(name string, steps []chainStep) (sim.Duration, error) {
	var total, jitter sim.Duration
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case stepTask:
			ts := e2e.TaskStage{Name: st.name, Target: st.name}
			if e, ok := inc.ecuIdx[inc.mapping[st.comp]]; ok {
				ts.Tasks, ts.Results = inc.ecus[e].tasks, inc.ecus[e].rep.Results
			}
			b, err := ts.Bound(jitter)
			if err != nil {
				return 0, err
			}
			total, jitter = total+b, b
		case stepSample:
			ss := e2e.SamplingStage{Name: st.name, Period: st.period}
			b, err := ss.Bound(jitter)
			if err != nil {
				return 0, err
			}
			total, jitter = total+b, 0
		case stepComm:
			if inc.mapping[st.comp] == inc.mapping[st.to] {
				continue // local: delivered at job completion, already counted
			}
			if st.tmpl < 0 {
				return 0, st.err
			}
			// The route carries the bus path, including a gateway segment
			// pair when the ECUs share no bus.
			r := &inc.routes[st.tmpl]
			for seg, bus := range [2]string{r.Bus, r.Bus2} {
				if seg == 1 && r.Via == "" {
					break
				}
				b, sampled, err := inc.busBound(bus, r, jitter)
				if err != nil {
					return 0, fmt.Errorf("chain %s: %w", name, err)
				}
				total, jitter = total+b, b
				if sampled {
					jitter = 0
				}
			}
		case stepFail:
			return 0, st.err
		}
	}
	return total, nil
}

// busBound bounds route r's segment on one bus: the frame's CAN response,
// or the wait for its FlexRay or TTP slot — a sampling stage, which
// absorbs upstream jitter.
func (inc *Incremental) busBound(name string, r *vfb.Route, jitter sim.Duration) (b sim.Duration, sampled bool, err error) {
	bi := inc.busIdx[name]
	bus, st := inc.sys.Buses[bi], &inc.buses[bi]
	var ss e2e.SamplingStage
	switch bus.Kind {
	case model.BusCAN:
		cs := e2e.CANStage{
			Name: name, Cfg: st.plan.CAN,
			Messages: st.msgs, Target: r.SignalName, Responses: st.resp,
		}
		b, err = cs.Bound(jitter)
		return b, false, err
	case model.BusFlexRay:
		if st.synthErr != nil {
			return 0, true, st.synthErr
		}
		a, ok := st.slots[r.SignalName]
		if !ok {
			return 0, true, fmt.Errorf("signal %s not in static schedule of %s", r.SignalName, name)
		}
		// The bound reflects the synthesized slot position: worst case is
		// one full repetition of waiting, and delivery completes at the
		// slot end within the cycle.
		cfg := st.plan.FlexRay
		ss = e2e.SamplingStage{Name: name, Period: sim.Duration(a.Repetition) * cfg.CycleLength(), Transfer: sim.Duration(a.SlotID) * cfg.SlotLength}
	case model.BusTTP:
		ss = e2e.SamplingStage{Name: name, Period: st.plan.Round(), Transfer: st.plan.TTP.SlotLength}
	}
	b, err = ss.Bound(jitter)
	return b, true, err
}

// chainReads reports whether constraint i's bound reads a marked ECU or
// bus: an ECU hosting one of its hops, or a bus one of its remote
// connector hops crosses. Every route that changed has a moved endpoint,
// whose old and new ECUs are both marked, so reading the current mapping
// and routes finds every chain the change can affect.
func (inc *Incremental) chainReads(i int, ecuDirty, busDirty []bool) bool {
	for _, hop := range inc.sys.Constraints[i].Chain {
		if e, ok := inc.ecuIdx[inc.mapping[hop.SWC]]; ok && ecuDirty[e] {
			return true
		}
	}
	for j := range inc.chains[i].steps {
		st := &inc.chains[i].steps[j]
		if st.kind != stepComm || st.tmpl < 0 {
			continue
		}
		for b, bus := range inc.sys.Buses {
			if busDirty[b] && inc.routes[st.tmpl].Crosses(bus.Name) {
				return true
			}
		}
	}
	return false
}

// findInternalRunnable returns the index of comp's runnable that reads
// inPort and writes outPort, or -1.
func findInternalRunnable(comp *model.SWC, inPort, outPort string) int {
	for i := range comp.Runnables {
		run := &comp.Runnables[i]
		reads := run.Trigger.Port == inPort
		for _, rr := range run.Reads {
			if rr.Port == inPort {
				reads = true
			}
		}
		writes := false
		for _, w := range run.Writes {
			if w.Port == outPort {
				writes = true
			}
		}
		if reads && writes {
			return i
		}
	}
	return -1
}
