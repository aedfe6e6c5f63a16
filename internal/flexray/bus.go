package flexray

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Bus simulates one FlexRay channel: an endless sequence of communication
// cycles, each running the static slot table and then minislot arbitration
// for the dynamic segment.
type Bus struct {
	Name  string
	Cfg   Config
	Trace *trace.Recorder
	// Mute drops transmissions of the listed senders (failed node or bus
	// guardian action).
	Mute map[string]bool
	// ErrorInjector, when set, is consulted once per physical channel a
	// frame transmits on: returning true corrupts that channel's copy,
	// which the receiver's frame CRC discards. The frame is delivered iff
	// at least one alive channel carries a clean copy — FlexRay has no
	// retransmission, so an all-channels-corrupted instance is lost.
	ErrorInjector func(f *Frame, ch Channel, at sim.Time) bool

	k       *sim.Kernel
	frames  []*Frame
	queued  map[*Frame][]queuedInstance
	started bool
	cycle   int
	// channel failure times (0 = healthy); dual-channel dependability.
	failedA, failedB sim.Time
}

// FailChannel kills one physical channel from time at on. Frames assigned
// only to that channel stop being delivered; ChannelAB frames survive on
// the other channel.
func (b *Bus) FailChannel(ch Channel, at sim.Time) {
	switch ch {
	case ChannelA:
		b.failedA = at
	case ChannelB:
		b.failedB = at
	case ChannelAB:
		b.failedA, b.failedB = at, at
	}
}

// channelAlive reports whether a frame has at least one working channel
// at time t.
func (b *Bus) channelAlive(f *Frame, t sim.Time) bool {
	aOK := b.failedA == 0 || t < b.failedA
	bOK := b.failedB == 0 || t < b.failedB
	switch f.Channel {
	case ChannelA:
		return aOK
	case ChannelB:
		return bOK
	default:
		return aOK || bOK
	}
}

type queuedInstance struct {
	at      sim.Time
	job     int64
	payload []byte
}

// NewBus creates a FlexRay channel on the kernel.
func NewBus(k *sim.Kernel, name string, cfg Config, rec *trace.Recorder) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{Name: name, Cfg: cfg, Trace: rec, k: k, queued: map[*Frame][]queuedInstance{}}, nil
}

// MustNewBus panics on configuration error.
func MustNewBus(k *sim.Kernel, name string, cfg Config, rec *trace.Recorder) *Bus {
	b, err := NewBus(k, name, cfg, rec)
	if err != nil {
		panic(err)
	}
	return b
}

// Kernel returns the simulation kernel.
func (b *Bus) Kernel() *sim.Kernel { return b.k }

// AddFrame registers a frame stream; static slot conflicts are rejected.
func (b *Bus) AddFrame(f *Frame) error {
	if b.started {
		return fmt.Errorf("flexray: bus %s: AddFrame after Start", b.Name)
	}
	if err := f.validate(b.Cfg); err != nil {
		return err
	}
	for _, other := range b.frames {
		if other.Name == f.Name {
			return fmt.Errorf("flexray: bus %s: duplicate frame %s", b.Name, f.Name)
		}
		if f.Kind == Static && other.Kind == Static && other.SlotID == f.SlotID &&
			channelsOverlap(f.Channel, other.Channel) {
			// Slot sharing is allowed only when the (base, repetition)
			// patterns never coincide on a shared channel.
			if cyclesCollide(f, other) {
				return fmt.Errorf("flexray: bus %s: frames %s and %s collide in slot %d", b.Name, other.Name, f.Name, f.SlotID)
			}
		}
		if f.Kind == Dynamic && other.Kind == Dynamic && other.FrameID == f.FrameID {
			return fmt.Errorf("flexray: bus %s: duplicate dynamic FrameID %d", b.Name, f.FrameID)
		}
	}
	b.frames = append(b.frames, f)
	return nil
}

// MustAddFrame is AddFrame that panics on error.
func (b *Bus) MustAddFrame(f *Frame) {
	if err := b.AddFrame(f); err != nil {
		panic(err)
	}
}

// channelsOverlap reports whether two channel assignments share a
// physical channel.
func channelsOverlap(a, b Channel) bool {
	if a == ChannelAB || b == ChannelAB {
		return true
	}
	return a == b
}

// cyclesCollide reports whether two static frames ever own the same cycle.
func cyclesCollide(a, c *Frame) bool {
	for cyc := 0; cyc < MaxCycle; cyc++ {
		if a.occupies(cyc) && c.occupies(cyc) {
			return true
		}
	}
	return false
}

// Frames returns the registered frame streams.
func (b *Bus) Frames() []*Frame { return b.frames }

// Cycle returns the current cycle counter (modulo 64).
func (b *Bus) Cycle() int { return b.cycle % MaxCycle }

// Start begins cycle execution and periodic queuing.
func (b *Bus) Start() {
	if b.started {
		return
	}
	b.started = true
	for _, f := range b.frames {
		if f.Period > 0 {
			b.k.Every(f.Offset, f.Period, 10, func(sim.Time) { b.Queue(f) })
		}
	}
	b.runCycle(0, 0)
}

// Queue enqueues one payload instance of f. For static frames the payload
// rides the next owned slot; for dynamic frames it arbitrates in the next
// dynamic segment.
func (b *Bus) Queue(f *Frame) { b.QueuePayload(f, nil) }

// QueuePayload enqueues an instance carrying an application payload.
func (b *Bus) QueuePayload(f *Frame, payload []byte) {
	now := b.k.Now()
	job := f.nextJob
	f.nextJob++
	b.Trace.Emit(now, trace.Activate, f.Name, job, "")
	if b.Mute[f.sender] {
		b.Trace.Emit(now, trace.Drop, f.Name, job, "node muted")
		return
	}
	inst := queuedInstance{at: now, job: job, payload: payload}
	b.queued[f] = append(b.queued[f], inst)
	if d := f.relativeDeadline(); d > 0 {
		b.k.AtPrio(now+d, 20, func() {
			for _, q := range b.queued[f] {
				if q.job == job {
					b.Trace.Emit(b.k.Now(), trace.Miss, f.Name, job, "")
					return
				}
			}
		})
	}
}

// runCycle executes communication cycle n starting at virtual time start.
func (b *Bus) runCycle(n int, start sim.Time) {
	b.cycle = n
	// Static segment: each slot delivers the owning frame's queued
	// payloads at slot end.
	for _, f := range b.frames {
		if !f.occupies(n % MaxCycle) {
			continue
		}
		f := f
		slotEnd := start + sim.Duration(f.SlotID)*b.Cfg.SlotLength
		slotStart := slotEnd - b.Cfg.SlotLength
		b.k.AtPrio(slotStart, 30, func() { b.deliver(f, b.k.Now()+b.Cfg.SlotLength) })
	}
	// Dynamic segment: minislot arbitration evaluated at segment start.
	if b.Cfg.Minislots > 0 {
		dynStart := start + b.Cfg.DynamicStart()
		b.k.AtPrio(dynStart, 30, func() { b.runDynamic() })
	}
	next := start + b.Cfg.CycleLength()
	b.k.AtPrio(next, 1, func() { b.runCycle(n+1, next) })
}

// deliver transmits all queued payload instances of f, completing at 'at'.
// A static slot transmits whether or not fresh data is queued (state
// semantics); only queued instances produce latency records.
func (b *Bus) deliver(f *Frame, at sim.Time) {
	pend := b.queued[f]
	if len(pend) == 0 {
		return
	}
	if !b.channelAlive(f, b.k.Now()) {
		// Channel down: payloads stay queued for a later occurrence (they
		// will be dropped only by their own deadline monitors).
		for _, q := range pend {
			b.Trace.Emit(b.k.Now(), trace.Error, f.Name, q.job, "channel "+f.Channel.String()+" down")
		}
		return
	}
	if !b.cleanCopySurvives(f, b.k.Now()) {
		// Transmitted but corrupted on every usable channel: the instances
		// are consumed and lost (receiver CRC discards them).
		delete(b.queued, f)
		for _, q := range pend {
			b.Trace.Emit(b.k.Now(), trace.Error, f.Name, q.job, "corrupted on all channels")
		}
		return
	}
	delete(b.queued, f)
	for _, q := range pend {
		q := q
		b.k.AtPrio(at, 40, func() {
			b.Trace.Emit(at, trace.Finish, f.Name, q.job, "")
			if f.OnDeliver != nil {
				f.OnDeliver(q.at, at, q.payload)
			}
		})
	}
}

// cleanCopySurvives reports whether at least one alive physical channel
// of the frame escapes the error injector at time t.
func (b *Bus) cleanCopySurvives(f *Frame, t sim.Time) bool {
	if b.ErrorInjector == nil {
		return true
	}
	aOK := b.failedA == 0 || t < b.failedA
	bOK := b.failedB == 0 || t < b.failedB
	onA := f.Channel == ChannelA || f.Channel == ChannelAB
	onB := f.Channel == ChannelB || f.Channel == ChannelAB
	if onA && aOK && !b.ErrorInjector(f, ChannelA, t) {
		return true
	}
	if onB && bOK && !b.ErrorInjector(f, ChannelB, t) {
		return true
	}
	return false
}

// runDynamic walks the minislot counter in FrameID order: a pending frame
// transmits if enough minislots remain in the segment, consuming Length
// minislots; otherwise the counter advances by one minislot.
func (b *Bus) runDynamic() {
	var dyn []*Frame
	for _, f := range b.frames {
		if f.Kind == Dynamic && len(b.queued[f]) > 0 && !b.Mute[f.sender] {
			dyn = append(dyn, f)
		}
	}
	sort.Slice(dyn, func(i, j int) bool { return dyn[i].FrameID < dyn[j].FrameID })
	slot := 0 // minislot counter
	now := b.k.Now()
	for _, f := range dyn {
		if slot >= b.Cfg.Minislots {
			break
		}
		if slot+f.Length > b.Cfg.Minislots {
			// pLatestTx exceeded: the frame cannot start this cycle; its
			// ID's minislot still elapses.
			slot++
			continue
		}
		end := now + sim.Duration(slot+f.Length)*b.Cfg.MinislotLength
		b.deliver(f, end)
		slot += f.Length
	}
}
