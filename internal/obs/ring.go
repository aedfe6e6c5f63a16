package obs

// Ring is a bounded circular buffer — the one storage primitive behind
// every retained record stream: the flight recorder's span, delta and
// history rings, the DLT Log in both modes and the platform error
// manager's record ring. It owns storage, growth, wrap, oldest-first
// order and the all-time total; owners keep only their policy on top
// (filtering, folding, aggregates). Pushes are allocation-free after the
// buffer reaches capacity (the backing array is grown once, amortized,
// up to cap and never beyond), so a ring can stay attached to a hot path
// for the whole life of a platform at bounded cost. The oldest entry is
// overwritten when the ring is full; Total counts every push ever made
// so consumers can tell how much history the cap discarded.
//
// A Ring has no lock: its owner guards it with the lock that already
// guards the owner's own state, so one recording takes one mutex. A nil
// *Ring is valid: pushes are discarded and snapshots are empty.
//
//autovet:nilsafe
type Ring[T any] struct {
	//autovet:bounded grows to cap, then overwrites in place; only NewLog's host-side capture asks for an unreachable cap
	buf   []T
	cap   int
	start int    // read index once wrapped
	total uint64 // pushes ever, folded ones included
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

// Newest returns the i-th newest retained entry (0 is the newest), or nil
// when fewer than i+1 are retained — the newest-first view an owner scans
// to fold a repeat into a recent entry in place. The pointer is valid
// until the next Push. Nil on a nil receiver.
func (r *Ring[T]) Newest(i int) *T {
	if r == nil || i < 0 || i >= len(r.buf) {
		return nil
	}
	// The newest entry sits just before the wrap point once full, at the
	// slice end while still filling (start is 0 until then).
	j := r.start - 1 - i
	if j < 0 {
		j += len(r.buf)
	}
	return &r.buf[j]
}

// Absorbed counts one push that the owner folded into a retained entry
// (found through Newest) instead of storing it: Total grows, nothing is
// stored or evicted. Safe on a nil receiver (no-op).
func (r *Ring[T]) Absorbed() {
	if r == nil {
		return
	}
	r.total++
}

// Len returns the number of retained entries. Zero on a nil receiver.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Cap returns the ring capacity. Zero on a nil receiver.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Total returns how many entries were ever pushed or absorbed, including
// the ones the cap has since discarded. Zero on a nil receiver.
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Snapshot returns the retained entries oldest-first. The result is a
// copy: the owner keeps recording while the caller inspects it. Nil on a
// nil receiver or an empty ring.
func (r *Ring[T]) Snapshot() []T {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}
