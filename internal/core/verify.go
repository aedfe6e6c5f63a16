// Package core is the paper's contribution layer: given a deployed
// component system it (a) statically verifies schedulability on every ECU
// and bus, contract compatibility, and end-to-end latency constraints —
// the "prior to implementation system configuration checks" §2 calls for —
// and (b) checks composability dynamically, by comparing component timing
// before and after integration or extension (§4's "stability of prior
// services").
//
// One verifier serves both a full check and design-space exploration. Its
// state (Incremental) holds the verified analysis of one mapping; a single
// update step re-analyzes a set of dirty ECUs and buses, and then the
// constraint chains that read them. Verify is that step with everything
// dirty; Incremental.Reverify derives the dirty sets of a mapping change
// and runs the same step. Each pass resolves every ECU and bus analysis
// once — the chains read those results directly — and an Incremental
// keeps every ECU and bus a move leaves clean. A Pipeline memoizes only
// the CAN bus analysis, the costliest one a move redoes: a re-verifying
// walk revisits each backbone frame set.
// A pass runs on its caller's goroutine: it is a dozen jobs of about a
// microsecond each, which a worker pool only slows down. Parallelism
// belongs a level up, across independent passes.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"autorte/internal/can"
	"autorte/internal/contract"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

// ECUReport is one ECU's schedulability verdict.
type ECUReport struct {
	Name        string
	Utilization float64
	Results     []sched.Result
	Schedulable bool
}

// BusReport is one bus's schedulability verdict.
type BusReport struct {
	Name        string
	Kind        model.BusKind
	Load        float64
	Schedulable bool
	Detail      string
}

// ChainReport is one latency constraint's verdict.
type ChainReport struct {
	Name   string
	Bound  sim.Duration
	Budget sim.Duration
	OK     bool
	Err    string
}

// Report aggregates static verification.
type Report struct {
	ECUs      []ECUReport
	Buses     []BusReport
	Chains    []ChainReport
	Contracts *contract.Report
	Warnings  []string
}

// OK reports overall static admissibility.
func (r *Report) OK() bool {
	for _, e := range r.ECUs {
		if !e.Schedulable {
			return false
		}
	}
	for _, b := range r.Buses {
		if !b.Schedulable {
			return false
		}
	}
	for _, c := range r.Chains {
		if !c.OK {
			return false
		}
	}
	return r.Contracts == nil || r.Contracts.OK()
}

// Pipeline is a reusable verification context: the CAN analysis cache
// and the observability hooks shared across Verify calls. The zero value
// is valid (no caching); NewPipeline enables the cache. A single
// Pipeline is safe for concurrent use; a search that re-verifies mapping
// after mapping shares one, so each distinct CAN frame set is analyzed
// once.
type Pipeline struct {
	// Deprecated: Workers is ignored; a pass runs on the caller.
	Workers int
	// CAN memoizes CAN bus analysis.
	CAN *can.Cache
	// Tracer records wall-clock spans around every Verify stage and
	// per-item job when non-nil (export with Tracer.WriteChrome or
	// Tracer.WriteTree). Nil — the default — traces nothing.
	Tracer *obs.Tracer

	// reg receives stage-duration histograms once Observe attaches it.
	reg *obs.Registry
}

// Observe attaches a metrics registry to the pipeline: stage-duration
// histograms (pipeline_stage_duration_ns by stage) and the hit/miss/size
// series of the CAN analysis cache.
func (p *Pipeline) Observe(reg *obs.Registry) {
	p.reg = reg
	p.CAN.Observe(reg)
}

// stage opens one timed pipeline stage: a tracer span (named by stage
// plus an optional per-item detail) and, when a registry is attached, a
// sample in the per-stage duration histogram. The returned func closes
// both. Cheap no-op when neither tracer nor registry is set.
func (p *Pipeline) stage(parent *obs.Span, stage, detail string) func() {
	if p.Tracer == nil && p.reg == nil {
		return func() {}
	}
	name := stage
	if detail != "" {
		name += " " + detail
	}
	sp := p.Tracer.StartChild(parent, name)
	t0 := time.Now() //autovet:allow walltime stage histogram times the host pipeline
	return func() {
		sp.End()
		if p.reg != nil {
			p.reg.Histogram("pipeline_stage_duration_ns",
				"Wall-clock duration of verification pipeline stages.",
				obs.Label{Key: "stage", Value: stage}).Observe(time.Since(t0).Nanoseconds()) //autovet:allow walltime stage histogram times the host pipeline
		}
	}
}

// NewPipeline returns a pipeline with the CAN analysis cache enabled.
// The workers argument is deprecated and ignored: a pass runs on the
// caller.
func NewPipeline(workers int) *Pipeline {
	return &Pipeline{Workers: workers, CAN: can.NewCache()}
}

// Verify statically checks a deployed system with a default pipeline:
// model + VFB validity, a mapping for every component with CPU demand
// (passive standbys may stay unmapped), fixed-priority schedulability per
// ECU (with the
// same priority assignment the RTE generates), bus schedulability per
// channel, contract compatibility, and every declared end-to-end latency
// constraint.
func Verify(sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Report, error) {
	return NewPipeline(0).Verify(sys, contracts, opts)
}

// Verify runs the full static check through the pipeline's cache: the
// verifier's full pass, reported. The report does not depend on the
// cache. sys is not modified.
func (p *Pipeline) Verify(sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Report, error) {
	inc, err := NewIncremental(p, sys, contracts, opts)
	if err != nil {
		return nil, err
	}
	return inc.Report(), nil
}

// Incremental is the verifier's state: the verified analysis of one
// mapping, retained so that the next mapping pays only for its delta.
// Verify builds one and reports it; a DSE loop keeps it and calls
// Reverify. Reports are identical — field for field — however the state
// was reached. Not safe for concurrent use: a DSE loop owns one
// Incremental per search thread.
type Incremental struct {
	p         *Pipeline
	sys       *model.System
	contracts map[string]*contract.Contract
	opts      rte.Options

	// Mapping-independent precomputation.
	ecuIdx   map[string]int    // sys.ECUs index by name
	busIdx   map[string]int    // sys.Buses index by name
	ecuOrder []int             // sys.ECUs indexes sorted by name
	protos   [][]taskset.Proto // per component, indexed like sys.Components
	tmpls    []vfb.Template    // connector declaration order
	bySignal []int             // tmpls indexes sorted by SignalName
	paths    *vfb.Paths

	// State of the last verified mapping.
	mapping     map[string]string
	routes      []vfb.Route  // indexed like tmpls
	ecus        []ecuState   // indexed like sys.ECUs
	buses       []busState   // indexed like sys.Buses
	chains      []chainState // indexed like sys.Constraints
	contractRep *contract.Report

	reverifies atomic.Uint64
	recomputed atomic.Uint64 // items re-analyzed across reverifies
	reused     atomic.Uint64 // items served from retained state
}

// ecuState is one ECU's task set and verdict. The verdict's Results are
// the response-time analysis every chain stage on the ECU reads.
type ecuState struct {
	tasks    []sched.Task // nil when the ECU hosts no analyzable runnable
	warnings []string     // the ECU's rate-less runnables
	rep      ECUReport
}

// busState is one bus's routes, the RTE's frame plan for them and the
// verdict, plus the analysis every chain stage crossing the bus reads.
type busState struct {
	routes   []vfb.Route                   // remote routes crossing the bus, by SignalName; nil when unused
	plan     rte.BusPlan                   // the frames the RTE puts on the bus
	msgs     []*can.Message                // CAN: the plan's analyzable frame set
	resp     []can.Response                // CAN analysis of msgs
	slots    map[string]flexray.Assignment // FlexRay static schedule by signal
	synthErr error                         // why FlexRay synthesis failed
	rep      BusReport
}

// NewIncremental verifies sys in full through p's cache and retains the
// state needed to re-verify mutated mappings incrementally. The initial
// report is available via Report(). sys is modified only by later
// Reverify calls.
func NewIncremental(p *Pipeline, sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Incremental, error) {
	root := p.Tracer.Start("verify")
	defer root.End()
	endSetup := p.stage(root, "verify/setup", "")
	inc, err := newIncremental(p, sys, contracts, opts)
	endSetup()
	if err != nil {
		return nil, err
	}
	buses := make([]int, len(sys.Buses))
	for i := range buses {
		buses[i] = i
	}
	if err := inc.update(root, inc.routes, inc.ecuOrder, buses, true); err != nil {
		return nil, err
	}
	return inc, nil
}

// newIncremental validates sys and computes everything mapping-independent
// — protos, route templates, chain stage plans — plus the routes of the
// current mapping.
func newIncremental(p *Pipeline, sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Incremental, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		return nil, err
	}
	inc := &Incremental{
		p: p, sys: sys, contracts: contracts, opts: opts,
		ecuIdx:   make(map[string]int, len(sys.ECUs)),
		busIdx:   make(map[string]int, len(sys.Buses)),
		ecuOrder: make([]int, len(sys.ECUs)),
		protos:   taskset.Protos(sys),
		paths:    vfb.NewPaths(sys),
		mapping:  maps.Clone(sys.Mapping),
		ecus:     make([]ecuState, len(sys.ECUs)),
		buses:    make([]busState, len(sys.Buses)),
	}
	for i, e := range sys.ECUs {
		inc.ecuIdx[e.Name] = i
		inc.ecuOrder[i] = i
	}
	slices.SortFunc(inc.ecuOrder, func(a, b int) int { return strings.Compare(sys.ECUs[a].Name, sys.ECUs[b].Name) })
	for i := len(sys.Buses) - 1; i >= 0; i-- {
		inc.busIdx[sys.Buses[i].Name] = i // the first of a duplicated name wins, as in BusByName
	}
	inc.tmpls = vfb.Templates(sys)
	inc.bySignal = make([]int, len(inc.tmpls))
	for i := range inc.bySignal {
		inc.bySignal[i] = i
	}
	slices.SortFunc(inc.bySignal, func(a, b int) int {
		return strings.Compare(inc.tmpls[a].SignalName, inc.tmpls[b].SignalName)
	})
	// Declaration order: the first unroutable connector is the one
	// reported, as vfb.Resolve reports it.
	inc.routes = make([]vfb.Route, len(inc.tmpls))
	for i, t := range inc.tmpls {
		r, err := t.Materialize(inc.mapping, inc.paths)
		if err != nil {
			return nil, err
		}
		inc.routes[i] = r
	}
	inc.chains = make([]chainState, len(sys.Constraints))
	inc.planChains()
	return inc, nil
}

// update is the verifier's one analysis step. inc.mapping already holds
// the mapping to verify and routes its routes; ecus (in name order) and
// buses (in declaration order) are the items whose analysis may have
// changed. Phase 1 re-derives each such ECU's task set and bus's frame
// set and analyzes them into scratch slots, ECUs first, then buses, then,
// on a full pass, the contract check; the first error is returned. The
// slots are committed only when every analysis succeeded, so an error
// leaves the retained state as it was. Phase 2 then evaluates every chain
// on a full pass, else the chains that read a dirty ECU or bus. A chain
// only reads the analyses phase 1 resolved. Chain evaluation cannot fail
// (a chain's error is part of its report).
func (inc *Incremental) update(root *obs.Span, routes []vfb.Route, ecus, buses []int, full bool) error {
	p, sys := inc.p, inc.sys
	endTasksets := func() {}
	if full {
		endTasksets = p.stage(root, "verify/tasksets", "")
	}
	hosts, err := inc.hosts(ecus)
	endTasksets()
	if err != nil {
		return err
	}

	nextECU := make([]ecuState, len(ecus))
	for k, e := range ecus {
		if err := inc.analyzeECU(root, e, hosts, k, &nextECU[k]); err != nil {
			return err
		}
	}
	nextBus := make([]busState, len(buses))
	for k, b := range buses {
		if err := inc.analyzeBus(root, sys.Buses[b], routes, &nextBus[k]); err != nil {
			return err
		}
	}
	var contractRep *contract.Report
	if full && inc.contracts != nil {
		endContracts := p.stage(root, "verify/contracts", "")
		contractRep, err = contract.CheckSystem(sys, inc.contracts)
		endContracts()
		if err != nil {
			return err
		}
	}
	inc.routes = routes
	ecuDirty := make([]bool, len(sys.ECUs))
	for k, e := range ecus {
		inc.ecus[e] = nextECU[k]
		ecuDirty[e] = true
	}
	busDirty := make([]bool, len(sys.Buses))
	for k, b := range buses {
		inc.buses[b] = nextBus[k]
		busDirty[b] = true
	}
	if full {
		inc.contractRep = contractRep
	}
	// Every reported item is either re-analyzed by this step or reused.
	items, recomputed := len(inc.chains), 0
	for i := range inc.chains {
		if full || inc.chainReads(i, ecuDirty, busDirty) {
			inc.evalChain(root, i)
			recomputed++
		}
	}
	for e := range inc.ecus {
		if inc.ecus[e].tasks != nil {
			items++
			if ecuDirty[e] {
				recomputed++
			}
		}
	}
	for b := range inc.buses {
		if inc.buses[b].routes != nil {
			items++
			if busDirty[b] {
				recomputed++
			}
		}
	}
	if !full {
		inc.recomputed.Add(uint64(recomputed))
		inc.reused.Add(uint64(items - recomputed))
	}
	return nil
}

// hosts maps every component to the position in ecus of the ECU hosting
// it under the current mapping, -1 for components on other ECUs and for
// passive standbys, which the analysis excludes. Any other component
// without a mapping entry is an error: its demand has no ECU to be
// analyzed on.
func (inc *Incremental) hosts(ecus []int) ([]int, error) {
	pos := make([]int, len(inc.sys.ECUs))
	for i := range pos {
		pos[i] = -1
	}
	for k, e := range ecus {
		pos[e] = k
	}
	at := make([]int, len(inc.sys.Components))
	for ci, comp := range inc.sys.Components {
		at[ci] = -1
		if comp.PassiveStandby() {
			continue
		}
		e, ok := inc.ecuIdx[inc.mapping[comp.Name]]
		if !ok {
			return nil, fmt.Errorf("core: component %s is not mapped", comp.Name)
		}
		at[ci] = pos[e]
	}
	return at, nil
}

// analyzeECU ranks the protos ecus[k] hosts through taskset.Rank and
// runs the resulting task set's schedulability check.
func (inc *Incremental) analyzeECU(root *obs.Span, e int, hosts []int, k int, st *ecuState) error {
	n := 0
	for ci, host := range hosts {
		if host == k {
			n += len(inc.protos[ci])
		}
	}
	hosted := make([]*taskset.Proto, 0, n)
	for ci, host := range hosts {
		if host == k {
			for j := range inc.protos[ci] {
				hosted = append(hosted, &inc.protos[ci][j])
			}
		}
	}
	ecu := inc.sys.ECUs[e]
	tasks, warnings := taskset.Rank(hosted, ecu.Speed, make([]sched.Task, 0, n), nil)
	st.warnings = warnings
	if len(tasks) == 0 {
		return nil
	}
	st.tasks = tasks
	defer inc.p.stage(root, "verify/ecu", ecu.Name)()
	ok, results, err := sched.Schedulable(st.tasks)
	if err != nil {
		return err
	}
	st.rep = ECUReport{
		Name: ecu.Name, Utilization: sched.TotalUtilization(st.tasks),
		Results: results, Schedulable: ok,
	}
	return nil
}

// analyzeBus runs the per-channel schedulability analysis of one bus and
// keeps what the chain stages crossing it read.
func (inc *Incremental) analyzeBus(root *obs.Span, b *model.Bus, routes []vfb.Route, st *busState) error {
	// The bus's remote routes in SignalName order.
	n := 0
	for i := range routes {
		if routes[i].Crosses(b.Name) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	st.routes = make([]vfb.Route, 0, n)
	for _, i := range inc.bySignal {
		if routes[i].Crosses(b.Name) {
			st.routes = append(st.routes, routes[i])
		}
	}
	defer inc.p.stage(root, "verify/bus", b.Name)()
	plan, err := rte.PlanBus(inc.sys, b, st.routes, inc.opts)
	if err != nil {
		return err
	}
	st.plan = plan
	st.rep = BusReport{Name: b.Name, Kind: b.Kind, Schedulable: true}
	switch b.Kind {
	case model.BusCAN:
		st.msgs = plan.Messages()
		// The verdict and the chains only read the responses; the shared
		// variant skips the per-call result copy.
		rs, err := inc.p.CAN.AnalyzeShared(plan.CAN, st.msgs)
		if err != nil {
			return err
		}
		st.resp = rs
		st.rep.Load = can.TotalUtilization(plan.CAN, st.msgs)
		// The last unschedulable frame names the verdict.
		for i := len(rs) - 1; i >= 0; i-- {
			if r := rs[i]; !r.Schedulable {
				st.rep.Schedulable = false
				st.rep.Detail = fmt.Sprintf("%s unschedulable (WCRT %v)", r.Message.Name, r.WCRT)
				break
			}
		}
	case model.BusFlexRay:
		// The static schedule, indexed by signal.
		as, err := flexray.Synthesize(plan.FlexRay, plan.Static())
		if err != nil {
			st.synthErr = err
			st.rep.Schedulable = false
			st.rep.Detail = err.Error()
			break
		}
		st.slots = make(map[string]flexray.Assignment, len(as))
		for _, a := range as {
			st.slots[a.Signal.Name] = a
		}
	case model.BusTTP:
		// TDMA capacity: each sender ECU gets one slot per round; a
		// signal's period must exceed the round length. The last
		// violating signal names the verdict.
		round := plan.Round()
		for i := len(plan.Frames) - 1; i >= 0; i-- {
			if f := &plan.Frames[i]; f.Period > 0 && f.Period < round {
				st.rep.Schedulable = false
				st.rep.Detail = fmt.Sprintf("%s period %v below TDMA round %v", f.Signal, f.Period, round)
				break
			}
		}
	}
	return nil
}

// Report assembles the retained state into a Report identical to what a
// fresh Pipeline.Verify of the current mapping returns.
func (inc *Incremental) Report() *Report {
	rep := &Report{Contracts: inc.contractRep, ECUs: make([]ECUReport, 0, len(inc.ecus))}
	for _, e := range inc.ecuOrder {
		st := &inc.ecus[e]
		if st.tasks != nil {
			rep.ECUs = append(rep.ECUs, st.rep)
		}
		rep.Warnings = append(rep.Warnings, st.warnings...)
	}
	for b := range inc.buses {
		if inc.buses[b].routes != nil {
			rep.Buses = append(rep.Buses, inc.buses[b].rep)
		}
	}
	rep.Chains = make([]ChainReport, len(inc.chains))
	for i := range inc.chains {
		rep.Chains[i] = inc.chains[i].rep
	}
	return rep
}
