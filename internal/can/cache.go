package can

import (
	"sort"
	"strconv"

	"autorte/internal/flight"
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

// cacheKey materializes appendKey as a string (kept for tests and
// debugging; the cache itself looks up via pooled buffers).
func cacheKey(cfg Config, msgs []*Message) string { return string(appendKey(nil, cfg, msgs)) }

// Cache memoizes Analyze by message-set key. During verification and DSE
// the same bus frame set is analyzed once per candidate mapping and once
// per chain stage; the cache collapses the repeats to a lookup. Safe for
// concurrent use; concurrent misses on one key coalesce onto one analysis.
type Cache struct {
	memo flight.Memo[[]Response]
}

// NewCache returns an empty CAN analysis cache.
func NewCache() *Cache { return &Cache{} }

// AnalyzeShared is the memoized equivalent of the package function
// Analyze. The returned slice is cache-owned and must not be mutated or
// retained across cache lifetimes, and its Message pointers are those of
// whichever key-equal set first populated the entry — match results by
// Name, not by pointer. A nil receiver degrades to the direct analysis.
func (c *Cache) AnalyzeShared(cfg Config, msgs []*Message) ([]Response, error) {
	if c == nil {
		return Analyze(cfg, msgs)
	}
	return c.memo.Get(func(buf []byte) []byte { return appendKey(buf, cfg, msgs) },
		func() ([]Response, error) { return Analyze(cfg, msgs) })
}

// Stats reports lookup hits and misses since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits, misses, _ = c.memo.Stats()
	return hits, misses
}

// Len reports the number of distinct message sets cached.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.memo.Len()
}

// Observe registers the cache's hit/miss/size series into a registry
// under the shared cache metric names, labeled cache="can". Safe on a
// nil receiver (registers nothing).
func (c *Cache) Observe(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.memo.Observe(reg, "can")
}
