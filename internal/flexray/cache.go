package flexray

import (
	"sort"
	"strconv"

	"autorte/internal/flight"
	"autorte/internal/obs"
)

// appendKey serializes a synthesis problem into buf: the configuration
// fields the placement reads plus the signals in the stable period order
// Synthesize places them in (ties keep input order, which affects slot
// assignment).
func appendKey(buf []byte, cfg Config, signals []Signal) []byte {
	ordered := signals
	for i := 1; i < len(signals); i++ {
		if signals[i-1].Period > signals[i].Period {
			ordered = append([]Signal(nil), signals...)
			sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Period < ordered[j].Period })
			break
		}
	}
	buf = strconv.AppendInt(buf, int64(cfg.StaticSlots), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(cfg.SlotLength), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(cfg.Minislots), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(cfg.MinislotLength), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(cfg.NIT), 10)
	buf = append(buf, '|')
	for _, s := range ordered {
		buf = strconv.AppendInt(buf, int64(len(s.Name)), 10)
		buf = append(buf, ':')
		buf = append(buf, s.Name...)
		buf = strconv.AppendInt(buf, int64(s.Period), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Deadline), 10)
		buf = append(buf, ';')
	}
	return buf
}

// cacheKey materializes appendKey as a string (kept for tests and
// debugging; the cache itself looks up via pooled buffers).
func cacheKey(cfg Config, signals []Signal) string { return string(appendKey(nil, cfg, signals)) }

// SynthCache memoizes static-segment schedule synthesis. The verifier
// synthesizes the same bus schedule once for the schedulability verdict
// and once per chain stage crossing the bus — and the DSE loop repeats
// both per candidate mapping. Safe for concurrent use.
type SynthCache struct {
	memo flight.Memo[[]Assignment]
}

// NewSynthCache returns an empty synthesis cache.
func NewSynthCache() *SynthCache { return &SynthCache{} }

// SynthesizeShared is the memoized equivalent of the package function
// Synthesize. The returned slice is the cache's own and MUST be treated
// as read-only. A nil receiver degrades to the direct synthesis.
func (c *SynthCache) SynthesizeShared(cfg Config, signals []Signal) ([]Assignment, error) {
	if c == nil {
		return Synthesize(cfg, signals)
	}
	return c.memo.Get(func(buf []byte) []byte { return appendKey(buf, cfg, signals) },
		func() ([]Assignment, error) { return Synthesize(cfg, signals) })
}

// Stats reports lookup hits and misses since creation.
func (c *SynthCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.memo.Stats()
}

// Len reports the number of distinct synthesis problems cached.
func (c *SynthCache) Len() int {
	if c == nil {
		return 0
	}
	return c.memo.Len()
}

// Observe registers the cache's hit/miss/size series into a registry
// under the shared cache metric names, labeled cache="flexray". Safe on
// a nil receiver (registers nothing).
func (c *SynthCache) Observe(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.memo.Observe(reg, "flexray")
}
