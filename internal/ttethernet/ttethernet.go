// Package ttethernet simulates a time-triggered Ethernet switch — the
// third time-triggered protocol §4 names next to FlexRay and TTP. A
// single switch forwards three traffic classes with strict precedence:
//
//   - TT (time-triggered): frames sent in pre-planned slots of a cyclic
//     schedule; the switch reserves the egress port so they never queue.
//   - RC (rate-constrained): sporadic frames with a bandwidth contract
//     (minimum inter-arrival); forwarded when no TT frame is due, policed
//     at ingress.
//   - BE (best-effort): everything else, lowest precedence, unbounded.
//
// The experiment-relevant property mirrors FlexRay's static segment: TT
// latency is load-independent, RC latency is bounded by its contract, BE
// degrades arbitrarily — temporal partitioning of one physical link.
package ttethernet

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Class is the traffic class of a stream.
type Class uint8

// Traffic classes in precedence order.
const (
	TT Class = iota
	RC
	BE
)

func (c Class) String() string {
	switch c {
	case TT:
		return "TT"
	case RC:
		return "RC"
	default:
		return "BE"
	}
}

// Config describes the switch and its schedule cycle.
type Config struct {
	// BitRate of every link (e.g. 100 Mbit/s).
	BitRate int64
	// Cycle is the TT schedule cycle length.
	Cycle sim.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BitRate <= 0 {
		return fmt.Errorf("ttethernet: non-positive bit rate")
	}
	if c.Cycle <= 0 {
		return fmt.Errorf("ttethernet: non-positive cycle")
	}
	return nil
}

// frameTime returns the wire time of a frame (minimum Ethernet frame 84
// bytes on the wire including preamble and IFG).
func (c Config) frameTime(bytes int) sim.Duration {
	if bytes < 84 {
		bytes = 84
	}
	return sim.Duration(int64(bytes*8) * int64(sim.Second) / c.BitRate)
}

// Stream is one unidirectional flow through the switch.
type Stream struct {
	Name  string
	Class Class
	// Bytes is the frame size on the wire.
	Bytes int
	// Egress names the destination port; streams to different egress
	// ports do not contend.
	Egress string
	// TT: Slot is the transmission offset within the cycle (set by
	// Schedule, or manually).
	Slot sim.Duration
	// RC: MinInterval is the bandwidth contract (minimum inter-arrival);
	// ingress policing drops closer spacing.
	MinInterval sim.Duration
	// Period auto-queues the stream (0 = externally queued via Queue).
	Period sim.Duration
	Offset sim.Duration
	// Deadline defaults to Period.
	Deadline sim.Duration
	// OnDeliver observes completed frames.
	OnDeliver func(queued, delivered sim.Time, payload []byte)

	nextJob  int64
	lastRxAt sim.Time
	everRx   bool
}

func (s *Stream) validate(cfg Config) error {
	if s.Name == "" {
		return fmt.Errorf("ttethernet: stream with empty name")
	}
	if s.Bytes <= 0 || s.Bytes > 1522 {
		return fmt.Errorf("ttethernet: stream %s: frame size %d outside 1..1522", s.Name, s.Bytes)
	}
	if s.Egress == "" {
		return fmt.Errorf("ttethernet: stream %s: no egress port", s.Name)
	}
	switch s.Class {
	case TT:
		if s.Slot < 0 || s.Slot >= cfg.Cycle {
			return fmt.Errorf("ttethernet: stream %s: slot %v outside cycle %v", s.Name, s.Slot, cfg.Cycle)
		}
	case RC:
		if s.MinInterval <= 0 {
			return fmt.Errorf("ttethernet: RC stream %s needs a MinInterval contract", s.Name)
		}
	case BE:
		// Best-effort streams carry no timing contract to validate.
	}
	if s.Period < 0 || s.Offset < 0 || s.Deadline < 0 {
		return fmt.Errorf("ttethernet: stream %s: negative timing parameter", s.Name)
	}
	return nil
}

func (s *Stream) relativeDeadline() sim.Duration {
	if s.Deadline > 0 {
		return s.Deadline
	}
	return s.Period
}

// Switch simulates one TT-Ethernet switch.
type Switch struct {
	Cfg   Config
	Trace *trace.Recorder

	k       *sim.Kernel
	streams []*Stream
	// per-egress-port state
	ports   map[string]*port
	started bool
	policed int64
}

type queued struct {
	stream  *Stream
	job     int64
	at      sim.Time
	payload []byte
	done    bool
}

type port struct {
	busyUntil sim.Time
	rcQueue   []*queued
	beQueue   []*queued
	// ttReserved lists (offset, length) reservations within the cycle.
	ttReserved []reservation
	serveArmed bool
}

type reservation struct {
	off, length sim.Duration
}

// NewSwitch creates a switch on the kernel.
func NewSwitch(k *sim.Kernel, cfg Config, rec *trace.Recorder) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Switch{Cfg: cfg, Trace: rec, k: k, ports: map[string]*port{}}, nil
}

// MustNewSwitch panics on configuration error.
func MustNewSwitch(k *sim.Kernel, cfg Config, rec *trace.Recorder) *Switch {
	s, err := NewSwitch(k, cfg, rec)
	if err != nil {
		panic(err)
	}
	return s
}

// AddStream registers a stream; TT slots on the same egress port must not
// overlap.
func (s *Switch) AddStream(st *Stream) error {
	if s.started {
		return fmt.Errorf("ttethernet: AddStream after Start")
	}
	if err := st.validate(s.Cfg); err != nil {
		return err
	}
	for _, o := range s.streams {
		if o.Name == st.Name {
			return fmt.Errorf("ttethernet: duplicate stream %s", st.Name)
		}
	}
	p := s.portOf(st.Egress)
	if st.Class == TT {
		length := s.Cfg.frameTime(st.Bytes)
		if st.Slot+length > s.Cfg.Cycle {
			return fmt.Errorf("ttethernet: stream %s: slot %v + frame %v exceeds cycle", st.Name, st.Slot, length)
		}
		for _, r := range p.ttReserved {
			if st.Slot < r.off+r.length && r.off < st.Slot+length {
				return fmt.Errorf("ttethernet: stream %s: TT slot overlaps an existing reservation on port %s", st.Name, st.Egress)
			}
		}
		p.ttReserved = append(p.ttReserved, reservation{st.Slot, length})
	}
	s.streams = append(s.streams, st)
	return nil
}

// MustAddStream is AddStream that panics on error.
func (s *Switch) MustAddStream(st *Stream) {
	if err := s.AddStream(st); err != nil {
		panic(err)
	}
}

func (s *Switch) portOf(name string) *port {
	p, ok := s.ports[name]
	if !ok {
		p = &port{}
		s.ports[name] = p
	}
	return p
}

// Policed returns the number of RC frames dropped by ingress policing.
func (s *Switch) Policed() int64 { return s.policed }

// Start installs periodic queueing.
func (s *Switch) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, st := range s.streams {
		if st.Period > 0 {
			s.k.Every(st.Offset, st.Period, 10, func(sim.Time) { s.Queue(st, nil) })
		}
	}
}

// Queue submits one frame of the stream.
func (s *Switch) Queue(st *Stream, payload []byte) {
	now := s.k.Now()
	job := st.nextJob
	st.nextJob++
	s.Trace.Emit(now, trace.Activate, st.Name, job, "")
	if st.Class == RC && st.everRx && now-st.lastRxAt < st.MinInterval {
		// Bandwidth contract violated: ingress policing drops the frame —
		// the guardian function for rate-constrained traffic.
		s.policed++
		s.Trace.Emit(now, trace.Drop, st.Name, job, "policed: below MinInterval")
		return
	}
	st.lastRxAt = now
	st.everRx = true
	q := &queued{stream: st, job: job, at: now, payload: payload}
	if d := st.relativeDeadline(); d > 0 {
		s.k.AtPrio(now+d, 20, func() {
			if !q.done {
				s.Trace.Emit(s.k.Now(), trace.Miss, st.Name, job, "")
			}
		})
	}
	switch st.Class {
	case TT:
		s.k.At(s.nextSlot(st, now), func() { s.deliverAfter(q, s.Cfg.frameTime(st.Bytes)) })
	case RC:
		p := s.portOf(st.Egress)
		p.rcQueue = append(p.rcQueue, q)
		s.armServe(st.Egress)
	case BE:
		p := s.portOf(st.Egress)
		p.beQueue = append(p.beQueue, q)
		s.armServe(st.Egress)
	}
}

// armServe defers port service to the end of the current instant so that
// frames of different classes arriving at the same virtual time are
// prioritized together (RC before BE).
func (s *Switch) armServe(egress string) {
	p := s.portOf(egress)
	if p.serveArmed {
		return
	}
	p.serveArmed = true
	s.k.AtPrio(s.k.Now(), 50, func() {
		p.serveArmed = false
		s.serve(egress)
	})
}

// nextSlot returns the next occurrence of the stream's TT slot at or
// after now.
func (s *Switch) nextSlot(st *Stream, now sim.Time) sim.Time {
	base := now - now%s.Cfg.Cycle + st.Slot
	if base < now {
		base += s.Cfg.Cycle
	}
	return base
}

// deliverAfter completes a frame after its wire time (TT path: the egress
// reservation guarantees no queueing).
func (s *Switch) deliverAfter(q *queued, wire sim.Duration) {
	end := s.k.Now() + wire
	p := s.portOf(q.stream.Egress)
	if p.busyUntil < end {
		p.busyUntil = end
	}
	s.k.At(end, func() { s.complete(q, end) })
}

// serve forwards queued RC/BE frames on a port whenever the link is free
// and the gap to the next TT reservation fits the frame (TT precedence by
// construction).
func (s *Switch) serve(egress string) {
	p := s.portOf(egress)
	now := s.k.Now()
	if p.busyUntil > now {
		// Link busy: re-arm at release.
		s.k.AtPrio(p.busyUntil, 30, func() { s.serve(egress) })
		return
	}
	var q *queued
	var queue *[]*queued
	if len(p.rcQueue) > 0 {
		queue = &p.rcQueue
	} else if len(p.beQueue) > 0 {
		queue = &p.beQueue
	} else {
		return
	}
	q = (*queue)[0]
	wire := s.Cfg.frameTime(q.stream.Bytes)
	start := s.fitAroundTT(p, now, wire)
	if start > now {
		s.k.AtPrio(start, 30, func() { s.serve(egress) })
		return
	}
	*queue = (*queue)[1:]
	p.busyUntil = now + wire
	s.Trace.Emit(now, trace.Start, q.stream.Name, q.job, "")
	s.k.At(now+wire, func() {
		s.complete(q, s.k.Now())
		s.serve(egress)
	})
}

// fitAroundTT returns the earliest start >= now such that [start,
// start+wire) does not intersect any TT reservation on the port.
func (s *Switch) fitAroundTT(p *port, now sim.Time, wire sim.Duration) sim.Time {
	if len(p.ttReserved) == 0 {
		return now
	}
	res := append([]reservation(nil), p.ttReserved...)
	sort.Slice(res, func(i, j int) bool { return res[i].off < res[j].off })
	start := now
	for guard := 0; guard < 3; guard++ { // at most a few cycle wraps
		off := sim.Duration(start % s.Cfg.Cycle)
		moved := false
		for _, r := range res {
			if off < r.off+r.length && r.off < off+wire {
				// Collides: start after this reservation.
				start += r.off + r.length - off
				off = sim.Duration(start % s.Cfg.Cycle)
				moved = true
			}
		}
		if !moved {
			return start
		}
	}
	return start
}

func (s *Switch) complete(q *queued, at sim.Time) {
	q.done = true
	s.Trace.Emit(at, trace.Finish, q.stream.Name, q.job, "")
	if q.stream.OnDeliver != nil {
		q.stream.OnDeliver(q.at, at, q.payload)
	}
}
