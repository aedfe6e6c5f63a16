package sim

import "container/heap"

// refKernel is the reference kernel: one heap-allocated *refEvent per
// schedule, ordered through container/heap, never reused. FuzzKernel
// holds Kernel to it.
type refKernel struct {
	now    Time
	queue  refQueue
	seq    uint64
	events uint64
	halted bool
}

type refEvent struct {
	at     Time
	seq    uint64
	prio   int
	fn     func()
	index  int
	dead   bool
	kernel *refKernel
}

func (e *refEvent) Cancel() {
	if e == nil || e.dead || e.index < 0 {
		if e != nil {
			e.dead = true
		}
		return
	}
	e.dead = true
	heap.Remove(&e.kernel.queue, e.index)
}

func (e *refEvent) Pending() bool { return e != nil && !e.dead && e.index >= 0 }

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (k *refKernel) AtPrio(t Time, prio int, fn func()) *refEvent {
	if t < k.now {
		panic("sim: scheduling event in the past")
	}
	e := &refEvent{at: t, seq: k.seq, prio: prio, fn: fn, kernel: k}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) Every(start Time, step Duration, prio int, fn func(now Time)) (cancel func()) {
	stopped := false
	var ev *refEvent
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

func (k *refKernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*refEvent)
	if e.dead {
		return k.Step()
	}
	k.now = e.at
	e.dead = true
	k.events++
	e.fn()
	return true
}

func (k *refKernel) Run(horizon Time) uint64 {
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

func (k *refKernel) Pending() int {
	n := 0
	for _, e := range k.queue {
		if !e.dead {
			n++
		}
	}
	return n
}
