package sched

import (
	"encoding/binary"
	"sort"

	"autorte/internal/flight"
	"autorte/internal/obs"
)

// appendKey serializes the canonical cache key of a task set into buf:
// the tasks are stable-sorted by descending priority — exactly the order
// ResponseTimes analyzes them in, so ties keep their input order and two
// inputs map to the same key if and only if the analysis sees the same
// sequence — and every analysis-relevant field is serialized exactly
// (length-prefixed name plus fixed-width binary fields; no hashing, so
// distinct sets can never collide). The input is not modified.
func appendKey(buf []byte, tasks []Task) []byte {
	// Task sets built by the deployment layers arrive already sorted by
	// descending priority; skip the copy+sort for them.
	byPrio := tasks
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].Priority < tasks[i].Priority {
			byPrio = append([]Task(nil), tasks...)
			sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].Priority > byPrio[j].Priority })
			break
		}
	}
	var w [8]byte
	field := func(v int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		buf = append(buf, w[:]...)
	}
	for i := range byPrio {
		t := &byPrio[i]
		field(int64(len(t.Name)))
		buf = append(buf, t.Name...)
		field(int64(t.C))
		field(int64(t.T))
		field(int64(t.D))
		field(int64(t.J))
		field(int64(t.B))
		field(int64(t.Priority))
	}
	return buf
}

// entry is one memoized analysis: the per-task results plus the folded
// schedulability verdict, so Check can answer without touching the slice.
type entry struct {
	rs []Result
	ok bool
}

// Cache memoizes ResponseTimes by canonical task-set key. It is safe for
// concurrent use; during design-space exploration most candidate mappings
// leave most ECUs' task sets untouched, so repeated analysis of unchanged
// ECUs becomes a map lookup.
type Cache struct {
	memo flight.Memo[entry]
}

// NewCache returns an empty response-time cache.
func NewCache() *Cache { return &Cache{} }

// lookup returns the memoized entry for tasks, computing and storing it on
// a miss. Concurrent misses on the same key coalesce onto one analysis.
// The returned slice is the cache's own.
func (c *Cache) lookup(tasks []Task) (entry, error) {
	return c.memo.Get(func(buf []byte) []byte { return appendKey(buf, tasks) }, func() (entry, error) {
		rs, err := ResponseTimes(tasks)
		if err != nil {
			return entry{}, err
		}
		e := entry{rs: rs, ok: true}
		for _, r := range rs {
			if !r.Schedulable {
				e.ok = false
				break
			}
		}
		return e, nil
	})
}

// SchedulableShared is the memoized equivalent of the package function
// Schedulable. The returned slice is the cache's own and MUST be treated
// as read-only: the verifier only reads it. A nil receiver degrades to
// the direct analysis.
func (c *Cache) SchedulableShared(tasks []Task) (bool, []Result, error) {
	if c == nil {
		return Schedulable(tasks)
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return false, nil, err
	}
	return e.ok, e.rs, nil
}

// Check answers only the schedulability verdict — the hot shape in
// design-space exploration, where the search cares about feasibility and
// discards the response times. A nil receiver degrades to the direct
// analysis.
func (c *Cache) Check(tasks []Task) (bool, error) {
	ok, _, err := c.SchedulableShared(tasks)
	return ok, err
}

// Stats reports lookup hits and misses since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits, misses, _ = c.memo.Stats()
	return hits, misses
}

// Len reports the number of distinct task sets cached.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.memo.Len()
}

// Observe registers the cache's hit/miss/size series into a registry
// under the shared cache metric names, labeled cache="rta". Safe on a
// nil receiver (registers nothing).
func (c *Cache) Observe(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.memo.Observe(reg, "rta")
}
