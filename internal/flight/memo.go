package flight

import (
	"sync"
	"sync/atomic"

	"autorte/internal/obs"
)

// keyBufPool recycles key scratch buffers across lookups so the steady
// state of a verification or DSE loop builds keys with zero allocations.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Memo is the result cache behind the analysis caches (sched, can,
// flexray): results keyed by an exact byte serialization of the analysis
// problem, concurrent misses on one key coalesced onto one computation,
// and hit/miss/dedup counters. The zero value is ready to use and safe
// for concurrent use.
type Memo[V any] struct {
	mu     sync.RWMutex
	m      map[string]V
	flight Group[V]
	hits   atomic.Uint64
	misses atomic.Uint64
	dedup  atomic.Uint64
}

// Get returns the memoized value for the key appendKey serializes,
// running compute on a miss. appendKey appends the key to the buffer it
// is given and returns the extended buffer; the buffer is pooled, so a
// hit allocates nothing. Errors are returned but not cached. The value
// is the memo's own: callers that hand it out mutably must copy it.
func (c *Memo[V]) Get(appendKey func([]byte) []byte, compute func() (V, error)) (V, error) {
	bp := keyBufPool.Get().(*[]byte)
	buf := appendKey((*bp)[:0])
	c.mu.RLock()
	v, ok := c.m[string(buf)] // map index on converted bytes: no allocation
	c.mu.RUnlock()
	if ok {
		*bp = buf
		keyBufPool.Put(bp)
		c.hits.Add(1)
		return v, nil
	}
	key := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	v, err, shared := c.flight.Do(key, func() (V, error) {
		// A racer may have stored the entry between our miss and winning
		// the flight; re-check before computing.
		c.mu.RLock()
		v, ok := c.m[key]
		c.mu.RUnlock()
		if ok {
			c.hits.Add(1)
			return v, nil
		}
		c.misses.Add(1)
		v, err := compute()
		if err != nil {
			return v, err
		}
		c.mu.Lock()
		if c.m == nil {
			c.m = map[string]V{}
		}
		c.m[key] = v
		c.mu.Unlock()
		return v, nil
	})
	if shared {
		c.dedup.Add(1)
	}
	return v, err
}

// Stats reports lookup hits, misses and coalesced (dedup) lookups since
// creation.
func (c *Memo[V]) Stats() (hits, misses, dedup uint64) {
	return c.hits.Load(), c.misses.Load(), c.dedup.Load()
}

// Len reports the number of distinct keys held.
func (c *Memo[V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Observe registers the memo's hit/miss/dedup/size series into a registry
// under the shared analysis-cache metric names, labeled cache=<label>.
func (c *Memo[V]) Observe(reg *obs.Registry, label string) {
	l := obs.Label{Key: "cache", Value: label}
	reg.CounterFunc("analysis_cache_hits_total", "Memoized analysis lookups served from cache.", c.hits.Load, l)
	reg.CounterFunc("analysis_cache_misses_total", "Memoized analysis lookups that ran the analysis.", c.misses.Load, l)
	reg.CounterFunc("analysis_cache_dedup_total", "Memoized analysis lookups coalesced onto a concurrent identical computation.", c.dedup.Load, l)
	reg.GaugeFunc("analysis_cache_entries", "Distinct problems held by the analysis cache.", func() float64 { return float64(c.Len()) }, l)
}
