// Package flight provides singleflight-style call deduplication and the
// Memo result cache built on it for the analysis caches: when several
// goroutines miss on the same key at once (DSE workers scoring sibling
// candidates, chain bounds sharing a bus), exactly one runs the
// computation and the rest wait for its result instead of repeating the
// work and double-counting the miss.
package flight

import "sync"

// call is one in-flight computation.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group deduplicates concurrent calls by string key. The zero value is
// ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do runs fn for key unless an identical call is already in flight, in
// which case it blocks until that call finishes and returns its result.
// shared reports whether the result came from another caller's fn. The
// in-flight entry is dropped once fn returns, so Do memoizes nothing
// itself — pair it with a result cache and double-check the cache inside
// fn (a racer may have completed and stored between the caller's cache
// miss and fn running).
func (g *Group[V]) Do(key string, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &call[V]{done: make(chan struct{})}
	if g.m == nil {
		g.m = map[string]*call[V]{}
	}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
