package obs

import "sync"

// Ring is a fixed-capacity circular buffer — the storage primitive of the
// flight recorder. Pushes are allocation-free after the buffer reaches
// capacity (the backing array is grown once, amortized, up to cap and
// never beyond), so a ring can stay attached to a hot path for the whole
// life of a platform at bounded cost. The oldest entry is overwritten
// when the ring is full; Total counts every push ever made so consumers
// can tell how much history the cap discarded. Safe for concurrent use.
// A nil *Ring is valid: pushes are discarded and snapshots are empty.
//
//autovet:nilsafe
type Ring[T any] struct {
	mu sync.Mutex
	//autovet:bounded grows to cap, then overwrites in place
	buf   []T
	cap   int
	start int    // read index once wrapped
	total uint64 // pushes ever
}

// DefaultRingCap is the capacity used when a ring is created with a
// non-positive one.
const DefaultRingCap = 1024

// NewRing returns an empty ring with the given capacity (DefaultRingCap
// when n <= 0). The backing array is allocated lazily on first push, so
// building a platform with many rings costs nothing until they record.
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		n = DefaultRingCap
	}
	return &Ring[T]{cap: n}
}

// Push appends v, overwriting the oldest entry when full. Safe on a nil
// receiver (discards).
func (r *Ring[T]) Push(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(v)
}

// push stores v; callers hold r.mu.
func (r *Ring[T]) push(v T) {
	if r.cap <= 0 {
		r.cap = DefaultRingCap
	}
	r.total++
	if len(r.buf) < r.cap {
		if len(r.buf) == cap(r.buf) {
			// Grow explicitly — small first, doubling, never past cap — so a
			// sparsely used ring stays tiny and a filling one doesn't churn
			// append-overshoot garbage on short-lived campaign platforms.
			n := 2 * cap(r.buf)
			if n < 32 {
				n = 32
			}
			if n > r.cap {
				n = r.cap
			}
			grown := make([]T, len(r.buf), n)
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % r.cap
}

// Len returns the number of retained entries. Zero on a nil receiver.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap returns the ring capacity. Zero on a nil receiver.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cap
}

// Total returns how many entries were ever pushed, including the ones the
// cap has since discarded. Zero on a nil receiver.
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained entries oldest-first. The result is a
// copy: the ring keeps recording while the caller inspects it. Nil on a
// nil receiver.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}
