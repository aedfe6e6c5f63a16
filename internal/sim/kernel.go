package sim

import "fmt"

// Event is a handle to a scheduled callback. Handles are values: the
// kernel recycles the event behind one once it fires or is cancelled, and
// the generation the handle was made with tells a stale handle from the
// event's later reuse. The zero Event refers to nothing.
type Event struct {
	e   *event
	gen uint64
}

// event is one schedule in the kernel's queue, recycled through its free
// list after it fires or is cancelled.
type event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among events at the same instant
	prio   int    // secondary order at the same instant; lower runs first
	fn     func()
	index  int    // position in the queue while scheduled
	gen    uint64 // bumped each time the event leaves the queue
	kernel *Kernel
}

// Pending reports whether the event is still scheduled.
func (h Event) Pending() bool { return h.e != nil && h.e.gen == h.gen }

// At reports the virtual time the event fires at, or 0 once it has fired
// or been cancelled.
func (h Event) At() Time {
	if !h.Pending() {
		return 0
	}
	return h.e.at
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op, even after the kernel has reused
// the event for a later schedule.
func (h Event) Cancel() {
	if !h.Pending() {
		return
	}
	k := h.e.kernel
	k.remove(h.e.index)
	k.release(h.e)
}

// before is the queue order: time, then prio, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// Kernel is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on a single
// goroutine.
type Kernel struct {
	now    Time
	queue  []*event // binary min-heap in before order
	free   []*event // fired and cancelled events, ready for reuse
	seq    uint64
	events uint64 // total events executed
	halted bool
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.events }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would destroy determinism.
func (k *Kernel) At(t Time, fn func()) Event { return k.at(t, 0, fn) }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) Event { return k.at(k.now+d, 0, fn) }

// AtPrio schedules fn at time t with an explicit same-instant priority;
// lower prio runs first. Substrates use this to order, e.g., budget
// replenishment before task release at the same tick.
func (k *Kernel) AtPrio(t Time, prio int, fn func()) Event { return k.at(t, prio, fn) }

func (k *Kernel) at(t Time, prio int, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		e = &event{kernel: k}
	}
	e.at, e.seq, e.prio, e.fn = t, k.seq, prio, fn
	k.seq++
	e.index = len(k.queue)
	k.queue = append(k.queue, e)
	k.up(e.index)
	return Event{e, e.gen}
}

// release retires an event that left the queue: every handle to it goes
// stale and the event joins the free list.
func (k *Kernel) release(e *event) {
	e.fn = nil
	e.gen++
	k.free = append(k.free, e)
}

// remove takes the event at queue index i out of the heap.
func (k *Kernel) remove(i int) {
	q := k.queue
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	k.queue = q[:n]
	if i < n && !k.down(i) {
		k.up(i)
	}
}

// up restores the heap order from index i towards the root.
func (k *Kernel) up(i int) {
	q := k.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down restores the heap order from index i towards the leaves and
// reports whether the event moved.
func (k *Kernel) down(i int) bool {
	q := k.queue
	n := len(q)
	e := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > start
}

// Every schedules fn on a fixed virtual-time grid: at start, then every
// step, re-arming itself until cancelled. prio orders the grid tick
// against same-instant model events (observability samplers use a high
// prio so they read state after the substrate has settled the instant).
// The returned cancel stops the grid; it is safe to call more than once.
func (k *Kernel) Every(start Time, step Duration, prio int, fn func(now Time)) (cancel func()) {
	if step <= 0 {
		panic("sim: Every step must be positive")
	}
	stopped := false
	var ev Event
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(k.now)
		ev = k.AtPrio(k.now+step, prio, tick)
	}
	ev = k.AtPrio(start, prio, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}

// Halt stops the run loop after the current event returns.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the next pending event and returns true, or returns false
// if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue[0]
	k.remove(0)
	fn := e.fn
	k.now = e.at
	k.release(e)
	k.events++
	fn()
	return true
}

// Run executes events until the queue drains, the horizon passes, or Halt
// is called. Events scheduled exactly at the horizon still execute; the
// clock finishes at min(horizon, last event time). It returns the number
// of events executed by this call.
func (k *Kernel) Run(horizon Time) uint64 {
	k.halted = false
	start := k.events
	for !k.halted && len(k.queue) > 0 {
		if k.queue[0].at > horizon {
			k.now = horizon
			break
		}
		k.Step()
	}
	if len(k.queue) == 0 && k.now < horizon {
		k.now = horizon
	}
	return k.events - start
}

// Pending returns the number of scheduled events. Cancel removes an event
// from the queue at once, so every queued event is live.
func (k *Kernel) Pending() int { return len(k.queue) }
