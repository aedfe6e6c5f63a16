package can

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"autorte/internal/obs"
)

// sortedByID reports whether msgs already arrive in the priority order
// Analyze uses; the verifier's message builders emit ID-ordered sets, so
// the sort copy is skipped for them.
func sortedByID(msgs []*Message) bool {
	for i := 1; i < len(msgs); i++ {
		if msgs[i-1].ID > msgs[i].ID {
			return false
		}
	}
	return true
}

// appendKey serializes the analysis-relevant view of a message set under a
// configuration into buf: frames sorted by ID — the priority order Analyze
// uses — with every field the recurrence reads. OnDeliver callbacks and
// runtime bookkeeping are irrelevant to the analysis and excluded.
func appendKey(buf []byte, cfg Config, msgs []*Message) []byte {
	byPrio := msgs
	if !sortedByID(msgs) {
		byPrio = append([]*Message(nil), msgs...)
		sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].ID < byPrio[j].ID })
	}
	buf = strconv.AppendInt(buf, cfg.BitRate, 10)
	if cfg.Extended {
		buf = append(buf, 'x')
	}
	buf = append(buf, '|')
	for _, m := range byPrio {
		buf = strconv.AppendInt(buf, int64(len(m.Name)), 10)
		buf = append(buf, ':')
		buf = append(buf, m.Name...)
		buf = strconv.AppendUint(buf, uint64(m.ID), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.DLC), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Period), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Jitter), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Deadline), 10)
		buf = append(buf, ';')
	}
	return buf
}

// keyBufPool recycles key scratch buffers across lookups, so a warm
// lookup builds its key without allocating.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Cache memoizes Analyze by message-set key. During verification and DSE
// the same bus frame set is analyzed once per candidate mapping; the
// cache collapses the repeats to a lookup. Safe for concurrent use.
// Concurrent misses on one key are not coalesced: each analyzes, and
// they store equal responses.
type Cache struct {
	mu     sync.RWMutex
	m      map[string][]Response
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns an empty CAN analysis cache.
func NewCache() *Cache { return &Cache{} }

// AnalyzeShared is the memoized equivalent of the package function
// Analyze. The returned slice is cache-owned and must not be mutated or
// retained across cache lifetimes, and its Message pointers are those of
// whichever key-equal set first populated the entry — match results by
// Name, not by pointer. Errors are returned but not cached. A nil
// receiver degrades to the direct analysis.
func (c *Cache) AnalyzeShared(cfg Config, msgs []*Message) ([]Response, error) {
	if c == nil {
		return Analyze(cfg, msgs)
	}
	bp := keyBufPool.Get().(*[]byte)
	buf := appendKey((*bp)[:0], cfg, msgs)
	c.mu.RLock()
	rs, ok := c.m[string(buf)] // map index on converted bytes: no allocation
	c.mu.RUnlock()
	if ok {
		*bp = buf
		keyBufPool.Put(bp)
		c.hits.Add(1)
		return rs, nil
	}
	key := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	c.misses.Add(1)
	rs, err := Analyze(cfg, msgs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string][]Response{}
	}
	c.m[key] = rs
	c.mu.Unlock()
	return rs, nil
}

// Stats reports lookup hits and misses since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of distinct message sets cached.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Observe registers the cache's hit/miss/size series into a registry
// under the shared analysis-cache metric names, labeled cache="can".
// Safe on a nil receiver (registers nothing).
func (c *Cache) Observe(reg *obs.Registry) {
	if c == nil {
		return
	}
	l := obs.Label{Key: "cache", Value: "can"}
	reg.CounterFunc("analysis_cache_hits_total", "Memoized analysis lookups served from cache.", c.hits.Load, l)
	reg.CounterFunc("analysis_cache_misses_total", "Memoized analysis lookups that ran the analysis.", c.misses.Load, l)
	reg.GaugeFunc("analysis_cache_entries", "Distinct problems held by the analysis cache.", func() float64 { return float64(c.Len()) }, l)
}
