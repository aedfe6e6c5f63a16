package noc

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Network simulates the mesh.
type Network struct {
	Cfg   Config
	Trace *trace.Recorder

	k       *sim.Kernel
	flows   []*Flow
	links   map[link]*linkState
	started bool

	// fault state per core
	crashed map[Coord]sim.Time
	babbler map[Coord][2]sim.Time // babble window per core

	blockedInjections int64 // rate-police drops (R1/R4)
	delivered         int64
}

type linkState struct {
	busyUntil sim.Time
}

// packet is one in-flight transfer.
type packet struct {
	flow     *Flow
	job      int64
	queuedAt sim.Time
	path     []link
	hop      int
	done     bool
}

// NewNetwork creates a mesh on the kernel.
func NewNetwork(k *sim.Kernel, cfg Config, rec *trace.Recorder) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		Cfg: cfg, Trace: rec, k: k,
		links:   map[link]*linkState{},
		crashed: map[Coord]sim.Time{},
		babbler: map[Coord][2]sim.Time{},
	}, nil
}

// MustNewNetwork panics on configuration error.
func MustNewNetwork(k *sim.Kernel, cfg Config, rec *trace.Recorder) *Network {
	n, err := NewNetwork(k, cfg, rec)
	if err != nil {
		panic(err)
	}
	return n
}

// AddFlow declares a message stream. In TDMA mode the whole packet path
// must fit inside one slot.
func (n *Network) AddFlow(f *Flow) error {
	if n.started {
		return fmt.Errorf("noc: AddFlow after Start")
	}
	if err := f.validate(n.Cfg); err != nil {
		return err
	}
	for _, o := range n.flows {
		if o.Name == f.Name {
			return fmt.Errorf("noc: duplicate flow %s", f.Name)
		}
	}
	if n.Cfg.Mode == TDMA {
		if t := n.transferTime(f); t > n.Cfg.SlotLength {
			return fmt.Errorf("noc: flow %s: transfer %v exceeds TDMA slot %v", f.Name, t, n.Cfg.SlotLength)
		}
	}
	n.flows = append(n.flows, f)
	return nil
}

// MustAddFlow is AddFlow that panics on error.
func (n *Network) MustAddFlow(f *Flow) {
	if err := n.AddFlow(f); err != nil {
		panic(err)
	}
}

// Flows returns the declared flows.
func (n *Network) Flows() []*Flow { return n.flows }

// BlockedInjections returns how many packets guardians dropped at source.
func (n *Network) BlockedInjections() int64 { return n.blockedInjections }

// Delivered returns the total packets delivered.
func (n *Network) Delivered() int64 { return n.delivered }

// CrashCore stops a core from injecting at time t.
func (n *Network) CrashCore(c Coord, t sim.Time) { n.crashed[c] = t }

// BabbleCore makes a core inject a continuous stream of maximal packets
// to the opposite mesh corner during [from, until).
func (n *Network) BabbleCore(c Coord, from, until sim.Time) {
	n.babbler[c] = [2]sim.Time{from, until}
}

// transferTime is the contention-free end-to-end time of one packet:
// store-and-forward over each hop.
func (n *Network) transferTime(f *Flow) sim.Duration {
	return sim.Duration(f.Hops()) * sim.Duration(f.Flits) * n.Cfg.FlitTime
}

// Start installs periodic injections and fault processes.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	for _, f := range n.flows {
		if f.Period > 0 {
			n.k.Every(f.Offset, f.Period, 10, func(sim.Time) { n.Inject(f) })
		}
	}
	// Row-major core order: babble events enter the kernel queue in a
	// fixed sequence so equal-time ties break identically on every run.
	coords := make([]Coord, 0, len(n.babbler))
	for c := range n.babbler {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool {
		if coords[i].Y != coords[j].Y {
			return coords[i].Y < coords[j].Y
		}
		return coords[i].X < coords[j].X
	})
	for _, c := range coords {
		w := n.babbler[c]
		n.scheduleBabble(c, w[0], w[1])
	}
}

// scheduleBabble injects an undeclared maximal packet every flit time.
func (n *Network) scheduleBabble(c Coord, from, until sim.Time) {
	dst := Coord{n.Cfg.Width - 1 - c.X, n.Cfg.Height - 1 - c.Y}
	rogue := &Flow{Name: fmt.Sprintf("babble%v", c), Src: c, Dst: dst, Flits: 16}
	var tick func(at sim.Time)
	tick = func(at sim.Time) {
		if at >= until {
			return
		}
		n.k.AtPrio(at, 11, func() {
			n.injectUndeclared(rogue)
			tick(at + 4*n.Cfg.FlitTime)
		})
	}
	tick(from)
}

// injectUndeclared models traffic outside any declared flow: in TDMA mode
// the time-triggered schedule physically has no slot for it (blocked); in
// best-effort mode the rate police (when armed) drops it, otherwise it
// floods the mesh.
func (n *Network) injectUndeclared(f *Flow) {
	if n.Cfg.Mode == TDMA || n.Cfg.RatePolice {
		n.blockedInjections++
		n.Trace.Emit(n.k.Now(), trace.Drop, f.Name, f.nextJob, "guardian blocked undeclared traffic")
		f.nextJob++
		return
	}
	n.forward(&packet{flow: f, job: f.nextJob, queuedAt: n.k.Now(), path: xyPath(f.Src, f.Dst)})
	f.nextJob++
}

// Inject queues one packet of a declared flow.
func (n *Network) Inject(f *Flow) {
	now := n.k.Now()
	job := f.nextJob
	f.nextJob++
	n.Trace.Emit(now, trace.Activate, f.Name, job, "")
	if t, down := n.crashed[f.Src]; down && now >= t {
		n.Trace.Emit(now, trace.Drop, f.Name, job, "core crashed")
		return
	}
	p := &packet{flow: f, job: job, queuedAt: now, path: xyPath(f.Src, f.Dst)}
	if d := f.relativeDeadline(); d > 0 {
		n.k.AtPrio(now+d, 20, func() {
			if !p.done {
				n.Trace.Emit(n.k.Now(), trace.Miss, f.Name, job, "")
			}
		})
	}
	switch n.Cfg.Mode {
	case BestEffort:
		n.forward(p)
	case TDMA:
		n.k.At(n.nextSlotStart(f.Src, now), func() { n.deliverTDMA(p) })
	}
}

// nextSlotStart returns the start of the core's next TDMA slot at or
// after now.
func (n *Network) nextSlotStart(c Coord, now sim.Time) sim.Time {
	cycle := sim.Duration(n.Cfg.Cores()) * n.Cfg.SlotLength
	slotOff := sim.Duration(n.Cfg.CoreIndex(c)) * n.Cfg.SlotLength
	base := now - now%cycle + slotOff
	if base < now {
		base += cycle
	}
	return base
}

// deliverTDMA completes a packet inside its reserved slot: by
// construction no other core transmits, so the transfer time is exact.
func (n *Network) deliverTDMA(p *packet) {
	end := n.k.Now() + n.transferTime(p.flow)
	n.k.At(end, func() { n.complete(p, end) })
}

// forward advances a best-effort packet one hop: it seizes the next link
// when free (FIFO via busyUntil) and holds it for the packet's serialized
// length.
func (n *Network) forward(p *packet) {
	if p.hop >= len(p.path) {
		n.complete(p, n.k.Now())
		return
	}
	l := p.path[p.hop]
	st := n.links[l]
	if st == nil {
		st = &linkState{}
		n.links[l] = st
	}
	now := n.k.Now()
	start := now
	if st.busyUntil > start {
		start = st.busyUntil
	}
	hold := sim.Duration(p.flow.Flits) * n.Cfg.FlitTime
	st.busyUntil = start + hold
	p.hop++
	n.k.At(start+hold, func() { n.forward(p) })
}

// complete finishes a packet.
func (n *Network) complete(p *packet, at sim.Time) {
	p.done = true
	n.delivered++
	n.Trace.Emit(at, trace.Finish, p.flow.Name, p.job, "")
	if p.flow.OnDeliver != nil {
		p.flow.OnDeliver(p.queuedAt, at)
	}
}
