// Package rte builds and runs the Runtime Environment: the per-ECU
// realization of the Virtual Functional Bus (§2). Given a deployed
// model.System, it generates OS tasks for every runnable, wires local
// communication through value buffers, routes remote communication through
// COM-packed frames on the simulated buses, and triggers data-received
// runnables on delivery.
//
// The RTE is what makes transferability concrete: the same components with
// the same behaviours run unchanged whether a connector resolves to a
// local buffer or a CAN/FlexRay/TTP frame — only latency changes.
package rte

import (
	"fmt"
	"sort"

	"autorte/internal/can"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/osek"
	"autorte/internal/protection"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/trace"
	"autorte/internal/ttp"
	"autorte/internal/vfb"
)

// Behavior is application logic attached to a runnable. It executes at job
// completion: inputs reflect the latest delivered values, outputs are
// published atomically at the job's finish time.
type Behavior func(ctx *Context)

// IsolationKind selects the timing-protection policy Build applies per
// supplier on shared ECUs.
type IsolationKind uint8

const (
	// NoIsolation runs plain fixed-priority scheduling (the AUTOSAR
	// baseline the paper critiques).
	NoIsolation IsolationKind = iota
	// ServerPerSupplier wraps each supplier's tasks in a reservation
	// server sized to its declared utilization.
	ServerPerSupplier
	// TablePerSupplier partitions each ECU's timeline into per-supplier
	// TDMA windows.
	TablePerSupplier
)

// isolationMargin scales a supplier's declared utilization into the
// capacity its server or table windows reserve, unless Reservations
// sizes it.
const isolationMargin = 1.25

func (k IsolationKind) String() string {
	switch k {
	case NoIsolation:
		return "none"
	case ServerPerSupplier:
		return "server"
	default:
		return "table"
	}
}

// Options tunes platform generation.
type Options struct {
	// CANConfig's identifier format (Extended) applies to every
	// model.BusCAN channel; each channel runs at its model bus's bit rate.
	CANConfig can.Config
	// FlexRayConfig applies to every model.BusFlexRay channel. Zero value
	// defaults to 8 static slots of 100us in a 1.1ms cycle.
	FlexRayConfig flexray.Config
	// TTPSlotLength applies to every model.BusTTP channel (default 250us).
	TTPSlotLength sim.Duration
	// EnforceBudgets arms per-job execution budgets at each runnable's
	// declared WCET (the vertical assumption becomes a monitored contract).
	EnforceBudgets bool
	// Isolation selects the timing-protection policy.
	Isolation IsolationKind
	// ServerKind selects the reservation algorithm for ServerPerSupplier.
	ServerKind protection.ServerKind
	// MajorFrame fixes the TablePerSupplier major frame explicitly. Zero
	// derives it from the shortest period on each ECU — convenient, but a
	// new faster task then changes every window ("careful planning ...
	// against future changes", §1). Planned systems set it explicitly.
	MajorFrame sim.Duration
	// Reservations explicitly sizes per-supplier capacity as a CPU
	// fraction, overriding the declared utilization × 1.25 sizing.
	// Planned systems reserve capacity here so that integrating a new
	// supplier later cannot move existing windows.
	Reservations map[string]float64
	// DualChannelFlexRay sends every FlexRay frame produced by a
	// component of ASIL-C or higher redundantly on both physical channels
	// (FlexRay's dependability feature applied by criticality).
	DualChannelFlexRay bool
	// E2E, when non-nil, protects every bus-carried signal route with an
	// AUTOSAR-style end-to-end protection header (CRC + sequence counter
	// + DataID): P01 on CAN segments, P05 on FlexRay segments, each
	// gateway hop protected separately. See E2EOptions.
	E2E *E2EOptions
	// DisableFlight builds the platform without the flight recorder.
	// The recorder is on by default — bounded rings make it cheap — but
	// overhead benchmarks and minimal platforms can opt out.
	DisableFlight bool
}

// fill sets every unset option that has a default to it. It is the one
// place the defaults live: Build and PlanBus both fill their options.
func (o *Options) fill() {
	if o.FlexRayConfig.CycleLength() == 0 {
		o.FlexRayConfig = flexray.Config{
			StaticSlots: 8, SlotLength: sim.US(100),
			Minislots: 40, MinislotLength: sim.US(5),
			NIT: sim.US(100),
		}
	}
	if o.TTPSlotLength == 0 {
		o.TTPSlotLength = sim.US(250)
	}
}

// Defaults returns o with Build's default in every unset option.
func (o Options) Defaults() Options {
	o.fill()
	return o
}

// Platform is the generated runtime for a deployed system.
type Platform struct {
	K     *sim.Kernel
	Trace *trace.Recorder
	Sys   *model.System
	// Errors is the platform error manager (§2 error handling): the
	// most recent DefaultErrorRecordCap reports in an obs.Ring, plus exact
	// DTC and per-kind aggregates.
	Errors *ErrorManager
	// Metrics is the platform's metrics registry, always present: kernel
	// event counts, error-manager counters and trace volume register here
	// at Build time, and applications may add their own series.
	Metrics *obs.Registry
	// DLT is the structured event log (AUTOSAR DLT style). With the
	// flight recorder on (the default) this is the recorder's ring-mode
	// log: the most recent DefaultFlightDLTCap records at info and above,
	// bursts of identical records folded into one with a Repeat count;
	// EnableDLT adjusts the level floor. With DisableFlight it stays nil
	// — every emission is nil-safe and free — until EnableDLT attaches
	// an unbounded log that keeps every record unfolded.
	DLT *obs.Log
	// Flight is the always-on flight recorder (nil with DisableFlight),
	// sized by the obs.FlightConfig defaults: obs.Ring buffers of recent
	// DLT records, task/fault span events (identical instants coalesced),
	// metric deltas and platform history, cut into diagnostic bundles by
	// Bundle.
	Flight *obs.Flight

	opts     Options
	cpus     map[string]*osek.CPU
	canBus   map[string]*can.Bus
	frBus    map[string]*flexray.Bus
	ttpBus   map[string]*ttpAdapter
	plans    map[string]*BusPlan   // every bus's frame plan, by name
	store    map[string]*cell      // consumer-side value buffers
	tasks    map[string]*osek.Task // "swc.runnable"
	routes   []vfb.Route
	outgoing map[string][]binding // "swc/port/elem" -> sinks
	behavior map[string]Behavior  // "swc.runnable"
	// frSlots maps "bus/signal" to the static slot synthesis assigned
	// the signal's FlexRay frame.
	frSlots map[string]flexray.Assignment
	// E2E protection state: per-signal channel ends, the consumer-port
	// index behind Context.E2EStatus, and the reception tamper hooks the
	// comm-fault injectors install.
	e2eChans map[string]*e2eChannel
	e2eByDst map[string]*e2eChannel
	rxTamper map[string]RxTamper
	// Replica-switchover state (replica.go): standbys per primary in
	// fail-over preference order, the instance currently delivering each
	// replicated function, and permanently failed ECUs.
	replicas map[string][]string
	active   map[string]string
	deadECU  map[string]bool
	// Hot-standby output gating (replica.go): every group member mapped
	// to its primary, the per-source muted delivery slots the fan-in
	// cells suppress inactive instances into, and the pending switchover
	// marks the latency histogram closes on first delivery.
	primaryOf map[string]string
	muted     map[string][]*mutedEntry
	switchAt  map[string]switchMark
	started   bool
	// Virtual-time sampling state (EnableSampling).
	sampler       *obs.Sampler
	samplerCancel func()
}

// cell is one consumer-side buffer with freshness metadata.
type cell struct {
	value     float64
	writtenAt sim.Time
	written   bool
	updates   int64
}

// binding is one resolved sink of a produced element.
type binding struct {
	route   vfb.Route
	local   bool
	send    func(value float64) // remote: queue on bus
	deliver func(value float64) // local or bus RX side: store + trigger
}

// Build validates the system and generates the full platform.
func Build(sys *model.System, opts Options) (*Platform, error) {
	opts.fill()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		return nil, err
	}
	for _, c := range sys.Components {
		if sys.Mapping[c.Name] == "" {
			return nil, fmt.Errorf("rte: component %s is not mapped to an ECU", c.Name)
		}
	}
	routes, err := vfb.Resolve(sys)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		K:        sim.NewKernel(),
		Trace:    &trace.Recorder{},
		Metrics:  obs.NewRegistry(),
		Sys:      sys,
		opts:     opts,
		cpus:     map[string]*osek.CPU{},
		canBus:   map[string]*can.Bus{},
		frBus:    map[string]*flexray.Bus{},
		ttpBus:   map[string]*ttpAdapter{},
		plans:    map[string]*BusPlan{},
		store:    map[string]*cell{},
		tasks:    map[string]*osek.Task{},
		routes:   routes,
		outgoing: map[string][]binding{},
		behavior: map[string]Behavior{},
		frSlots:  map[string]flexray.Assignment{},
		e2eChans: map[string]*e2eChannel{},
		e2eByDst: map[string]*e2eChannel{},
		rxTamper: map[string]RxTamper{},
	}
	p.Errors = newErrorManager(p)
	p.attachFlight()
	p.K.Observe(p.Metrics)
	p.Metrics.GaugeFunc("rte_trace_records",
		"Records accumulated by the platform trace recorder.",
		func() float64 { return float64(len(p.Trace.Records)) })
	p.Metrics.GaugeFunc("rte_dtcs",
		"Distinct diagnostic trouble codes aggregated from error reports.",
		func() float64 { return float64(p.Errors.DTCCount()) })
	if err := p.buildCPUs(); err != nil {
		return nil, err
	}
	if err := p.buildBuses(); err != nil {
		return nil, err
	}
	if err := p.buildTasks(); err != nil {
		return nil, err
	}
	if err := p.buildRoutes(); err != nil {
		return nil, err
	}
	p.initReplicas()
	return p, nil
}

// MustBuild panics on build error; for tests and examples.
func MustBuild(sys *model.System, opts Options) *Platform {
	p, err := Build(sys, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// SetBehavior attaches application logic to a runnable. Must be called
// before Run.
func (p *Platform) SetBehavior(swc, runnable string, b Behavior) error {
	comp := p.Sys.Component(swc)
	if comp == nil {
		return fmt.Errorf("rte: unknown component %s", swc)
	}
	if comp.Runnable(runnable) == nil {
		return fmt.Errorf("rte: component %s has no runnable %s", swc, runnable)
	}
	p.behavior[swc+"."+runnable] = b
	return nil
}

// MustBehavior is SetBehavior but panics on an unknown component or
// runnable. Experiments and examples use it so a typo'd name fails the
// run loudly instead of leaving the real behavior silently unattached
// and measuring a dead platform.
func (p *Platform) MustBehavior(swc, runnable string, b Behavior) {
	if err := p.SetBehavior(swc, runnable, b); err != nil {
		panic(err)
	}
}

// CPU returns the generated CPU of an ECU.
func (p *Platform) CPU(ecu string) *osek.CPU { return p.cpus[ecu] }

// Task returns the generated OS task of a runnable.
func (p *Platform) Task(swc, runnable string) *osek.Task { return p.tasks[swc+"."+runnable] }

// CANBus returns the simulated CAN channel by name.
func (p *Platform) CANBus(name string) *can.Bus { return p.canBus[name] }

// FlexRayBus returns the simulated FlexRay channel by name.
func (p *Platform) FlexRayBus(name string) *flexray.Bus { return p.frBus[name] }

// TTPCluster returns the simulated TTP cluster by bus name.
func (p *Platform) TTPCluster(name string) *ttp.Cluster {
	if a := p.ttpBus[name]; a != nil {
		return a.cluster
	}
	return nil
}

// Routes returns the resolved communication routes.
func (p *Platform) Routes() []vfb.Route { return p.routes }

// EnableDLT attaches the structured event log, keeping records at or
// above min, and returns it. Before this call every DLT emission hits a
// nil sink and is discarded for free (the nil-*Recorder idiom).
func (p *Platform) EnableDLT(min obs.Level) *obs.Log {
	if p.DLT == nil {
		p.DLT = obs.NewLog(min)
	} else {
		p.DLT.Min = min
	}
	return p.DLT
}

// Run starts every CPU and bus and executes the simulation to the horizon.
func (p *Platform) Run(horizon sim.Time) {
	if !p.started {
		p.started = true
		p.DLT.Emitf(int64(p.K.Now()), obs.LevelInfo, "RTE", "LIFE",
			"platform started: %d ECUs, %d buses, %d tasks",
			len(p.cpus), len(p.canBus)+len(p.frBus)+len(p.ttpBus), len(p.tasks))
		// Name-sorted starts: the initial kernel events must enter the
		// queue in a fixed order so equal-time ties (every CPU and bus
		// starts at t=0) resolve identically on every run.
		for _, name := range sortedNames(p.cpus) {
			p.cpus[name].Start()
		}
		for _, name := range sortedNames(p.canBus) {
			p.canBus[name].Start()
		}
		for _, name := range sortedNames(p.frBus) {
			p.frBus[name].Start()
		}
		for _, name := range sortedNames(p.ttpBus) {
			p.ttpBus[name].start()
		}
		p.startE2ESupervision()
	}
	p.K.Run(horizon)
}

// Stats summarizes the response times of one task or message source.
func (p *Platform) Stats(source string) trace.Stats {
	return trace.Summarize(p.Trace, source)
}

// Value returns the latest delivered value at a consumer port element and
// whether anything arrived yet.
func (p *Platform) Value(swc, port, elem string) (float64, bool) {
	c := p.store[storeKey(swc, port, elem)]
	if c == nil || !c.written {
		return 0, false
	}
	return c.value, true
}

func storeKey(swc, port, elem string) string { return swc + "/" + port + "/" + elem }

// buildCPUs creates one osek.CPU per used ECU.
func (p *Platform) buildCPUs() error {
	for _, e := range p.Sys.ECUs {
		p.cpus[e.Name] = osek.NewCPU(p.K, e.Name, e.Speed, p.Trace)
	}
	return nil
}

// buildTasks creates OS tasks for every runnable with the priorities
// taskset assigns per CPU and the selected isolation policy. Every mapped
// component is ranked, standbys included.
func (p *Platform) buildTasks() error {
	protos := taskset.Protos(p.Sys)
	perECU := map[string][]*taskset.Proto{}
	for ci, comp := range p.Sys.Components {
		ecu := p.Sys.Mapping[comp.Name]
		for j := range protos[ci] {
			perECU[ecu] = append(perECU[ecu], &protos[ci][j])
		}
	}
	ecus := make([]string, 0, len(perECU))
	for e := range perECU {
		ecus = append(ecus, e)
	}
	sort.Strings(ecus)
	for _, ecu := range ecus {
		hosted := perECU[ecu]
		taskset.Order(hosted)
		seen := map[string]bool{}
		var comps []*model.SWC
		for _, pt := range hosted {
			if !seen[pt.Comp.Name] {
				seen[pt.Comp.Name] = true
				comps = append(comps, pt.Comp)
			}
		}
		throttles, err := p.buildIsolation(ecu, comps)
		if err != nil {
			return err
		}
		for rank, pt := range hosted {
			comp, run := pt.Comp, pt.Run // captured by the callbacks below
			task := &osek.Task{
				Name:      pt.Name,
				Priority:  taskset.Priority(rank),
				WCET:      run.WCETNominal,
				Deadline:  run.Deadline,
				Supplier:  comp.Supplier,
				MaxQueued: 4,
			}
			if run.Trigger.Kind == model.TimingEvent {
				task.Period = run.Trigger.Period
				task.Offset = run.Trigger.Offset
			}
			if p.opts.EnforceBudgets {
				task.Budget = run.WCETNominal
			}
			if th := throttles[comp.Supplier]; th != nil {
				task.Throttle = th
			}
			task.OnFinish = func(job int64) { p.execute(comp, run, job) }
			// Budget exhaustion is a timing error: report it through the
			// consistent error path so mode management and diagnostics
			// see it (§2).
			task.OnAbort = func(job int64) {
				p.Errors.Report(comp.Name, ErrTiming,
					fmt.Sprintf("%s job %d exceeded its execution budget", run.Name, job))
			}
			if err := p.cpus[ecu].AddTask(task); err != nil {
				return err
			}
			p.tasks[pt.Name] = task
		}
	}
	return nil
}

// buildIsolation creates per-supplier throttles on one ECU according to
// the isolation policy. Suppliers are sized to their declared utilization
// times the margin.
func (p *Platform) buildIsolation(ecu string, comps []*model.SWC) (map[string]osek.Throttle, error) {
	out := map[string]osek.Throttle{}
	if p.opts.Isolation == NoIsolation {
		return out, nil
	}
	speed := p.Sys.ECUByName(ecu).Speed
	util := map[string]float64{}
	minPeriod := map[string]sim.Duration{}
	var suppliers []string
	for _, c := range comps {
		if _, ok := util[c.Supplier]; !ok {
			suppliers = append(suppliers, c.Supplier)
			minPeriod[c.Supplier] = sim.Infinity
		}
		util[c.Supplier] += c.Utilization() / speed
		for i := range c.Runnables {
			r := &c.Runnables[i]
			if r.Trigger.Kind == model.TimingEvent && r.Trigger.Period < minPeriod[c.Supplier] {
				minPeriod[c.Supplier] = r.Trigger.Period
			}
		}
	}
	sort.Strings(suppliers)
	// reserved returns the CPU fraction set aside for a supplier: the
	// planned reservation when configured, else declared utilization
	// scaled by the margin.
	reserved := func(s string) float64 {
		if f, ok := p.opts.Reservations[s]; ok {
			return f
		}
		return util[s] * isolationMargin
	}
	switch p.opts.Isolation {
	case ServerPerSupplier:
		for _, s := range suppliers {
			period := minPeriod[s]
			if period == sim.Infinity {
				period = sim.MS(5)
			}
			budget := sim.Duration(float64(period) * reserved(s))
			if budget <= 0 {
				budget = period / 100
			}
			if budget > period {
				budget = period
			}
			srv, err := protection.NewServer(ecu+"/"+s, p.opts.ServerKind, budget, period)
			if err != nil {
				return nil, fmt.Errorf("rte: isolation server for supplier %s on %s: %w", s, ecu, err)
			}
			out[s] = srv
		}
	case TablePerSupplier:
		// Windows are allocated sequentially in sorted supplier order,
		// proportional to reserved capacity. With an explicit MajorFrame
		// and explicit Reservations the table is stable under extension:
		// a later supplier (sorting last) lands in the spare tail without
		// moving anyone's window.
		major := p.opts.MajorFrame
		if major == 0 {
			major = sim.Infinity
			for _, s := range suppliers {
				if minPeriod[s] < major {
					major = minPeriod[s]
				}
			}
			if major == sim.Infinity {
				major = sim.MS(5)
			}
		}
		var windows []protection.Window
		cursor := sim.Duration(0)
		for _, s := range suppliers {
			length := sim.Duration(float64(major) * reserved(s))
			if length <= 0 {
				length = major / 100
			}
			windows = append(windows, protection.Window{Partition: s, Start: cursor, Length: length})
			cursor += length
		}
		if cursor > major {
			return nil, fmt.Errorf("rte: ECU %s: supplier reservations (%v) exceed major frame %v", ecu, cursor, major)
		}
		table, err := protection.NewTable(major, windows)
		if err != nil {
			return nil, fmt.Errorf("rte: ECU %s: %w", ecu, err)
		}
		for _, s := range suppliers {
			part, err := table.Partition(s)
			if err != nil {
				return nil, err
			}
			out[s] = part
		}
	default:
		// NoIsolation returned early above: no throttles to build.
	}
	return out, nil
}

// sortedNames returns m's keys sorted, for deterministic start order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
