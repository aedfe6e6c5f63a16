package can

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
	"autorte/internal/trace"
)

// Bus simulates one CAN channel: pending frames arbitrate by ID whenever
// the bus goes idle; transmission is non-preemptive; corrupted frames
// raise an error frame and are retransmitted automatically.
type Bus struct {
	Name  string
	Cfg   Config
	Trace *trace.Recorder
	// ErrorInjector, when set, is consulted once per transmission attempt;
	// returning true corrupts that attempt (fault injection hook).
	ErrorInjector func(m *Message, attempt int, at sim.Time) bool
	// Mute, when set, drops every frame whose sender matches (simulates a
	// failed or guardian-blocked node).
	Mute map[string]bool

	k        *sim.Kernel
	messages []*Message
	pending  []*pendingTx
	busy     bool
	started  bool
	arbArmed bool

	busyTime sim.Duration // accumulated transmission time (load accounting)
	retrans  int64
}

type pendingTx struct {
	msg      *Message
	queuedAt sim.Time
	job      int64
	attempt  int
	payload  []byte
}

// NewBus creates a channel on the kernel.
func NewBus(k *sim.Kernel, name string, cfg Config, rec *trace.Recorder) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{Name: name, Cfg: cfg, Trace: rec, k: k}, nil
}

// MustNewBus panics on config error; for tests and examples.
func MustNewBus(k *sim.Kernel, name string, cfg Config, rec *trace.Recorder) *Bus {
	b, err := NewBus(k, name, cfg, rec)
	if err != nil {
		panic(err)
	}
	return b
}

// Kernel returns the simulation kernel.
func (b *Bus) Kernel() *sim.Kernel { return b.k }

// AddMessage registers a message stream. Must precede Start.
func (b *Bus) AddMessage(m *Message) error {
	if b.started {
		return fmt.Errorf("can: bus %s: AddMessage after Start", b.Name)
	}
	if err := m.validate(); err != nil {
		return err
	}
	for _, other := range b.messages {
		if other.Name == m.Name {
			return fmt.Errorf("can: bus %s: duplicate message %s", b.Name, m.Name)
		}
		if other.ID == m.ID {
			return fmt.Errorf("can: bus %s: duplicate ID %#x (%s, %s)", b.Name, m.ID, other.Name, m.Name)
		}
	}
	b.messages = append(b.messages, m)
	return nil
}

// MustAddMessage is AddMessage that panics on error.
func (b *Bus) MustAddMessage(m *Message) {
	if err := b.AddMessage(m); err != nil {
		panic(err)
	}
}

// Messages returns the registered message streams.
func (b *Bus) Messages() []*Message { return b.messages }

// Retransmissions returns the count of error-triggered retransmissions.
func (b *Bus) Retransmissions() int64 { return b.retrans }

// Load returns the fraction of elapsed time the bus spent transmitting.
func (b *Bus) Load() float64 {
	if b.k.Now() == 0 {
		return 0
	}
	return float64(b.busyTime) / float64(b.k.Now())
}

// Start installs periodic queuing for all periodic messages.
func (b *Bus) Start() {
	if b.started {
		return
	}
	b.started = true
	for _, m := range b.messages {
		if m.Period > 0 {
			b.k.Every(m.Offset, m.Period, 10, func(sim.Time) { b.Queue(m) })
		}
	}
}

// Queue enqueues one instance of m for transmission.
func (b *Bus) Queue(m *Message) { b.QueuePayload(m, nil) }

// QueuePayload enqueues one instance of m carrying an application payload
// that is handed to OnDeliver at the receiving end.
func (b *Bus) QueuePayload(m *Message, payload []byte) {
	now := b.k.Now()
	job := m.nextJob
	m.nextJob++
	b.Trace.Emit(now, trace.Activate, m.Name, job, "")
	if b.Mute[m.sender] {
		b.Trace.Emit(now, trace.Drop, m.Name, job, "node muted")
		return
	}
	tx := &pendingTx{msg: m, queuedAt: now, job: job, payload: payload}
	b.pending = append(b.pending, tx)
	if d := m.relativeDeadline(); d > 0 {
		b.k.AtPrio(now+d, 20, func() {
			for _, p := range b.pending {
				if p == tx {
					b.Trace.Emit(b.k.Now(), trace.Miss, m.Name, job, "")
					return
				}
			}
		})
	}
	b.scheduleArbitrate()
}

// scheduleArbitrate defers arbitration to the end of the current instant,
// so frames queued by different nodes at the same virtual time all
// participate in one arbitration round (as they would at a shared SOF).
func (b *Bus) scheduleArbitrate() {
	if b.busy || b.arbArmed {
		return
	}
	b.arbArmed = true
	b.k.AtPrio(b.k.Now(), 50, func() {
		b.arbArmed = false
		b.arbitrate()
	})
}

// arbitrate starts transmission of the highest-priority pending frame if
// the bus is idle.
func (b *Bus) arbitrate() {
	if b.busy || len(b.pending) == 0 {
		return
	}
	// Lowest ID wins; FIFO among instances of the same message.
	sort.SliceStable(b.pending, func(i, j int) bool {
		if b.pending[i].msg.ID != b.pending[j].msg.ID {
			return b.pending[i].msg.ID < b.pending[j].msg.ID
		}
		return b.pending[i].queuedAt < b.pending[j].queuedAt
	})
	tx := b.pending[0]
	b.busy = true
	b.Trace.Emit(b.k.Now(), trace.Start, tx.msg.Name, tx.job, "")
	dur := b.Cfg.FrameTime(tx.msg.DLC)
	if b.ErrorInjector != nil && b.ErrorInjector(tx.msg, tx.attempt, b.k.Now()) {
		// Corruption: error frame, then automatic retransmission. The slot
		// wasted is the full frame plus the error frame (worst case).
		wasted := dur + sim.Duration(errorFrameBits)*b.Cfg.BitTime()
		b.busyTime += wasted
		b.k.After(wasted, func() {
			b.busy = false
			tx.attempt++
			b.retrans++
			b.Trace.Emit(b.k.Now(), trace.Error, tx.msg.Name, tx.job, "frame corrupted")
			b.arbitrate()
		})
		return
	}
	b.busyTime += dur
	b.k.After(dur, func() {
		b.busy = false
		// The winning frame is still pending[0]: arbitration is
		// non-preemptive and Queue never removes entries.
		b.pending = b.pending[1:]
		b.Trace.Emit(b.k.Now(), trace.Finish, tx.msg.Name, tx.job, "")
		if tx.msg.OnDeliver != nil {
			tx.msg.OnDeliver(tx.queuedAt, b.k.Now(), tx.payload)
		}
		b.arbitrate()
	})
}
