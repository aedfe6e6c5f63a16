package rte

import (
	"fmt"

	"autorte/internal/can"
	"autorte/internal/com"
	"autorte/internal/e2eprot"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/sim"
	"autorte/internal/ttp"
	"autorte/internal/vfb"
)

// buildBuses plans every model bus's frames and instantiates its
// simulated channel from the plan.
func (p *Platform) buildBuses() error {
	for _, b := range p.Sys.Buses {
		plan, err := PlanBus(p.Sys, b, p.routes, p.opts)
		if err != nil {
			return err
		}
		p.plans[b.Name] = &plan
		switch b.Kind {
		case model.BusCAN:
			bus, err := can.NewBus(p.K, b.Name, plan.CAN, p.Trace)
			if err != nil {
				return err
			}
			p.canBus[b.Name] = bus
		case model.BusFlexRay:
			bus, err := flexray.NewBus(p.K, b.Name, plan.FlexRay, p.Trace)
			if err != nil {
				return err
			}
			p.frBus[b.Name] = bus
			if len(plan.Frames) == 0 {
				break
			}
			as, err := flexray.Synthesize(plan.FlexRay, plan.Static())
			if err != nil {
				return fmt.Errorf("rte: bus %s: %w", b.Name, err)
			}
			for _, a := range as {
				p.frSlots[b.Name+"/"+a.Signal.Name] = a
			}
		case model.BusTTP:
			a, err := newTTPAdapter(p, &plan)
			if err != nil {
				return err
			}
			p.ttpBus[b.Name] = a
		}
	}
	return nil
}

// busSegment is one hop of a signal over one bus: its planned frame, the
// transmitting ECU and the action at the receiving side. Direct routes
// are one segment; gatewayed routes are two chained segments (the second
// segment's send is the first's deliver).
type busSegment struct {
	frame  *Frame
	sender string // transmitting ECU
	srcSWC string // producing component (criticality-based channel policy)
	dst    string // consuming component (E2E fault attribution)
	// dstKey names the consumer element the segment delivers to; empty on
	// a gatewayed route's first hop, which delivers to the gateway.
	dstKey  string
	deliver func(float64)
}

// buildRoutes wires every resolved route: local routes deliver directly,
// remote routes get one frame per bus segment and deliver on reception.
func (p *Platform) buildRoutes() error {
	// Routes are wired in SignalName order, the order each bus's plan
	// lists its frames in, so the k-th segment wired onto a bus is the
	// plan's k-th frame.
	wired := map[string]int{}

	wire := func(busName string, seg busSegment) (func(float64), error) {
		plan := p.plans[busName]
		seg.frame = &plan.Frames[wired[busName]]
		wired[busName]++
		switch plan.Bus.Kind {
		case model.BusCAN:
			return p.wireCANSegment(p.canBus[busName], seg)
		case model.BusFlexRay:
			return p.wireFlexRaySegment(p.frBus[busName], seg)
		case model.BusTTP:
			return p.ttpBus[busName].addSegment(seg)
		}
		return nil, fmt.Errorf("rte: segment %s references bus %q of unknown kind", seg.frame.Name, busName)
	}

	for _, r := range p.routes {
		r := r
		deliver := p.makeDeliver(r)
		if r.Local {
			p.addBinding(r, binding{route: r, local: true, deliver: deliver})
			continue
		}
		srcSWC, _, dstSWC, dstPort := routeEndpoints(r)
		// A gatewayed route wires its far segment first so the near
		// segment's reception can forward onto it (the gateway of
		// Figure 1, realized at the Via ECU: the near segment's receiver
		// verifies the PDU, the far segment's sender protects it anew).
		seg := busSegment{
			sender: p.Sys.Mapping[srcSWC], srcSWC: srcSWC, dst: dstSWC,
			dstKey: storeKey(dstSWC, dstPort, r.Elem), deliver: deliver,
		}
		if r.Via == "" {
			send, err := wire(r.Bus, seg)
			if err != nil {
				return err
			}
			p.addBinding(r, binding{route: r, send: send})
			continue
		}
		hop1 := seg
		seg.sender = r.Via
		send2, err := wire(r.Bus2, seg)
		if err != nil {
			return err
		}
		hop1.dstKey, hop1.deliver = "", send2
		send1, err := wire(r.Bus, hop1)
		if err != nil {
			return err
		}
		p.addBinding(r, binding{route: r, send: send1})
	}
	return nil
}

// wireCANSegment creates the CAN message of one segment's planned frame
// and returns its send function.
func (p *Platform) wireCANSegment(bus *can.Bus, seg busSegment) (func(float64), error) {
	f := seg.frame
	onDeliver, tx := p.segmentEnds(seg, e2eprot.P01)
	msg := &can.Message{
		Name: f.Name, ID: f.ID, DLC: f.Length,
		// Periodic auto-queue stays off: the RTE queues payloads when
		// producers write. The producer period feeds deadline monitoring.
		Deadline:  f.Period,
		OnDeliver: onDeliver,
	}
	msg.SetSender(seg.sender)
	if err := bus.AddMessage(msg); err != nil {
		return nil, err
	}
	return func(v float64) { bus.QueuePayload(msg, tx.encode(v)) }, nil
}

// wireFlexRaySegment creates the FlexRay frame of one segment's planned
// frame, a periodic one in the static slot synthesis assigned it and an
// event one in the dynamic segment, and returns its send function.
func (p *Platform) wireFlexRaySegment(bus *flexray.Bus, seg busSegment) (func(float64), error) {
	f := seg.frame
	frame := &flexray.Frame{
		Name: f.Name, Kind: flexray.Dynamic, FrameID: int(f.ID),
		Length: 1 + f.Length/2, // rough words-per-minislot model
	}
	if f.Period > 0 {
		a := p.frSlots[bus.Name+"/"+f.Signal]
		frame = &flexray.Frame{
			Name: f.Name, Kind: flexray.Static,
			SlotID: a.SlotID, Base: a.Base, Repetition: a.Repetition,
			Deadline: f.Period,
		}
	}
	onDeliver, tx := p.segmentEnds(seg, e2eprot.P05)
	frame.OnDeliver = onDeliver
	if p.opts.DualChannelFlexRay {
		if c := p.Sys.Component(seg.srcSWC); c != nil && c.ASIL >= model.ASILC {
			frame.Channel = flexray.ChannelAB
		}
	}
	if tx.e2e != nil {
		tx.e2e.failover = frFailover(frame)
	}
	frame.SetSender(seg.sender)
	if err := bus.AddFrame(frame); err != nil {
		return nil, err
	}
	return func(v float64) { bus.QueuePayload(frame, tx.encode(v)) }, nil
}

// segmentEnds builds one segment's PDU, arms its E2E protection and
// returns both ends: the reception callback of its bus frame and the
// encoder that packs values into payloads.
func (p *Platform) segmentEnds(seg busSegment, profile e2eprot.ProfileKind) (
	onDeliver func(queued, delivered sim.Time, payload []byte), tx segmentTx) {
	tx.pdu = signalPDU(seg.frame)
	tx.e2e = p.protectSegment(seg, tx.pdu, profile)
	rx := p.receivePath(seg, tx.pdu, tx.e2e)
	signal := seg.frame.Name
	return func(_, _ sim.Time, payload []byte) { p.deliverRx(signal, payload, rx) }, tx
}

// segmentTx is a segment's sending end: its PDU and, when protected, its
// E2E channel (nil otherwise).
type segmentTx struct {
	pdu *com.IPdu
	e2e *e2eChannel
}

// encode packs a value into a fresh payload, protected when E2E is on.
func (tx segmentTx) encode(v float64) []byte {
	payload := tx.pdu.Pack(map[string]float64{"v": v})
	if tx.e2e != nil {
		_ = tx.e2e.tx.Protect(payload) //autovet:allow errreport Protect only fails on a payload/offset mismatch, validated at build
	}
	return payload
}

// signalPDU builds a frame's single-signal COM PDU: the element packed
// from bit 0 (raw integer transport, unit scale) in the planned payload,
// whose tail holds the E2E header when the frame is protected.
func signalPDU(f *Frame) *com.IPdu {
	return &com.IPdu{
		Name: f.Name, Length: f.Length,
		Signals: []com.Signal{{Name: "v", StartBit: 0, Bits: f.Bits}},
	}
}

// routeEndpoints returns the producing and consuming endpoints of a
// route. Sender-receiver data flows provider -> requirer; client-server
// calls flow requirer -> provider.
func routeEndpoints(r vfb.Route) (srcSWC, srcPort, dstSWC, dstPort string) {
	if r.Elem == "__call__" {
		return r.Conn.ToSWC, r.Conn.ToPort, r.Conn.FromSWC, r.Conn.FromPort
	}
	return r.Conn.FromSWC, r.Conn.FromPort, r.Conn.ToSWC, r.Conn.ToPort
}

// addBinding registers a sink for the producing (swc, port, elem).
func (p *Platform) addBinding(r vfb.Route, b binding) {
	srcSWC, srcPort, _, _ := routeEndpoints(r)
	key := storeKey(srcSWC, srcPort, r.Elem)
	p.outgoing[key] = append(p.outgoing[key], b)
}

// makeDeliver returns the consumer-side delivery action for a route:
// store the value and activate data-received runnables.
func (p *Platform) makeDeliver(r vfb.Route) func(float64) {
	_, _, dstSWC, dstPort := routeEndpoints(r)
	key := storeKey(dstSWC, dstPort, r.Elem)
	// Replica fan-in: every route into the same consumer element — the
	// primary's and each standby's — must land in ONE cell, or reads
	// would follow whichever route registered last while the promoted
	// instance delivers into an orphan.
	c := p.store[key]
	if c == nil {
		c = &cell{}
		p.store[key] = c
	}
	comp := p.Sys.Component(dstSWC)
	ecu := p.Sys.Mapping[dstSWC]
	// Pre-compute the runnables triggered by this element's arrival.
	var triggered []string
	for i := range comp.Runnables {
		run := &comp.Runnables[i]
		if run.Trigger.Kind == model.DataReceivedEvent && run.Trigger.Port == dstPort &&
			(run.Trigger.Elem == r.Elem || run.Trigger.Elem == "") {
			triggered = append(triggered, comp.Name+"."+run.Name)
		}
		if run.Trigger.Kind == model.OperationInvokedEvent && run.Trigger.Port == dstPort && r.Elem == "__call__" {
			triggered = append(triggered, comp.Name+"."+run.Name)
		}
	}
	cpu := p.cpus[ecu]
	deliver := func(v float64) {
		c.value = v
		c.writtenAt = p.K.Now()
		c.written = true
		c.updates++
		for _, name := range triggered {
			cpu.Activate(p.tasks[name])
		}
	}
	srcSWC, _, _, _ := routeEndpoints(r)
	if !p.replicatedSource(srcSWC) {
		return deliver
	}
	// Replica fan-out gating: routes from every instance of a replica
	// group land on this consumer element, but only the active instance
	// may drive it. Inactive instances — hot standbys running at full
	// WCET and bus load, or a demoted primary — are suppressed HERE, at
	// the fan-in cell, so their compute and bus cost stays real while
	// their outputs go dark. The latest suppressed value is retained per
	// source: FailOver/FailBack flush it, turning a hot switchover into
	// an output unmute instead of a wait for the next production.
	suppressed := p.Metrics.Counter("rte_suppressed_deliveries_total",
		"Deliveries suppressed at the fan-in cell because the producing replica is not the active instance.",
		obs.Label{Key: "swc", Value: srcSWC})
	me := &mutedEntry{fn: deliver}
	if p.muted == nil {
		p.muted = map[string][]*mutedEntry{}
	}
	p.muted[srcSWC] = append(p.muted[srcSWC], me)
	return func(v float64) {
		// The replica index materializes after route wiring (Build order),
		// so the active pointer is consulted lazily per delivery.
		primary, ok := p.primaryOf[srcSWC]
		if !ok || p.ActiveReplica(primary) == srcSWC {
			if ok {
				p.noteSwitchDelivery(primary)
			}
			deliver(v)
			return
		}
		me.value, me.has = v, true
		suppressed.Inc()
	}
}

// execute runs a runnable's behaviour at job completion and publishes
// every written element.
func (p *Platform) execute(comp *model.SWC, run *model.Runnable, job int64) {
	ctx := &Context{p: p, comp: comp, run: run, job: job}
	if b := p.behavior[comp.Name+"."+run.Name]; b != nil {
		b(ctx)
		return
	}
	// Default behaviour: republish the declared writes with the latest
	// read input (or the job index when there are no inputs), so trigger
	// chains propagate without user code.
	v := float64(job)
	if len(run.Reads) > 0 {
		if rv, ok := ctx.ReadOK(run.Reads[0].Port, run.Reads[0].Elem); ok {
			v = rv
		}
	}
	for _, w := range run.Writes {
		//autovet:allow e2eflow infrastructure default republish: protected routes deliver only verified frames, and qualification is the duty of a real behavior
		ctx.Write(w.Port, w.Elem, v)
	}
}

// ttpAdapter maps an ECU-per-node TTP cluster under the RTE: values queued
// by a node's components are delivered to consumers at the node's next
// successful slot.
type ttpAdapter struct {
	cluster *ttp.Cluster
	nodes   map[string]*ttp.Node // by ECU name
	pending map[string][]pendingValue
	sinks   map[string][]func(float64)
}

type pendingValue struct {
	signal string
	value  float64
}

func newTTPAdapter(p *Platform, plan *BusPlan) (*ttpAdapter, error) {
	cluster, err := ttp.NewCluster(p.K, plan.TTP, p.Trace)
	if err != nil {
		return nil, err
	}
	a := &ttpAdapter{
		cluster: cluster,
		nodes:   map[string]*ttp.Node{},
		pending: map[string][]pendingValue{},
		sinks:   map[string][]func(float64){},
	}
	for _, ecu := range plan.Nodes {
		ecu := ecu
		n := &ttp.Node{Name: ecu, Guardian: true}
		n.OnTransmit = func(sim.Time) { a.flush(ecu) }
		if err := cluster.AddNode(n); err != nil {
			return nil, err
		}
		a.nodes[ecu] = n
	}
	return a, nil
}

// addSegment registers one signal segment and returns its send function:
// the sender node carries the value at its next slot, the last value
// written before the slot winning.
func (a *ttpAdapter) addSegment(seg busSegment) (func(float64), error) {
	ecu, signal := seg.sender, seg.frame.Name
	if _, ok := a.nodes[ecu]; !ok {
		return nil, fmt.Errorf("rte: TTP bus has no node for ECU %q", ecu)
	}
	a.sinks[signal] = append(a.sinks[signal], seg.deliver)
	return func(v float64) {
		pend := a.pending[ecu]
		for i := range pend {
			if pend[i].signal == signal {
				pend[i].value = v
				return
			}
		}
		a.pending[ecu] = append(pend, pendingValue{signal: signal, value: v})
	}, nil
}

func (a *ttpAdapter) flush(ecu string) {
	pend := a.pending[ecu]
	a.pending[ecu] = nil
	for _, pv := range pend {
		for _, sink := range a.sinks[pv.signal] {
			sink(pv.value)
		}
	}
}

func (a *ttpAdapter) start() {
	if len(a.cluster.Nodes()) >= 2 {
		if err := a.cluster.Start(); err != nil {
			panic(err)
		}
	}
}
