package can

import (
	"fmt"
	"reflect"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/race"
	"autorte/internal/sim"
)

// cacheKey materializes a message set's cache key.
func cacheKey(cfg Config, msgs []*Message) string { return string(appendKey(nil, cfg, msgs)) }

func cacheMsgs() []*Message {
	return []*Message{
		{Name: "m1", ID: 0x100, DLC: 4, Period: sim.MS(10)},
		{Name: "m2", ID: 0x101, DLC: 8, Period: sim.MS(20)},
		{Name: "m3", ID: 0x102, DLC: 2, Period: sim.MS(50)},
	}
}

func TestCacheMatchesDirectAnalysis(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	c := NewCache()
	want, err := Analyze(cfg, cacheMsgs())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := c.AnalyzeShared(cfg, cacheMsgs()) // fresh pointers every pass
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d responses, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i].Message.Name != want[i].Message.Name || got[i].WCRT != want[i].WCRT ||
				got[i].Blocking != want[i].Blocking || got[i].Schedulable != want[i].Schedulable {
				t.Fatalf("pass %d: response %d diverges: %+v vs %+v", pass, i, got[i], want[i])
			}
		}
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// A failed analysis is returned but not stored: the same set misses
// again.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	c := NewCache()
	msgs := cacheMsgs()
	msgs[1].Period = 0 // the analysis needs a period
	for pass := 0; pass < 2; pass++ {
		if _, err := c.AnalyzeShared(cfg, msgs); err == nil {
			t.Fatalf("pass %d: a period-less frame analyzed without error", pass)
		}
	}
	if _, misses := c.Stats(); misses != 2 || c.Len() != 0 {
		t.Fatalf("misses = %d, Len = %d; want 2 and 0 (errors are not cached)", misses, c.Len())
	}
}

func TestCacheNilReceiverDegrades(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	var c *Cache
	got, err := c.AnalyzeShared(cfg, cacheMsgs())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Analyze(cfg, cacheMsgs())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache should behave like the direct analysis")
	}
	if hits, misses := c.Stats(); hits+misses != 0 || c.Len() != 0 {
		t.Fatal("nil cache reports traffic")
	}
	c.Observe(obs.NewRegistry()) // registers nothing, must not panic
}

// Concurrent lookups of distinct sets build their keys in pooled
// buffers; one set's bytes must never bleed into another's key and so
// serve it another set's responses. Serial keys and direct analyses are
// the ground truth.
func TestKeyStableUnderConcurrentPooledUse(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	sets := make([][]*Message, 16)
	keys := map[string]bool{}
	want := make([][]sim.Duration, len(sets))
	for i := range sets {
		sets[i] = cacheMsgs()
		sets[i][0].DLC = i % 9
		sets[i][2].Name = string(rune('a' + i))
		keys[cacheKey(cfg, sets[i])] = true
		rs, err := Analyze(cfg, sets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wcrts(rs)
	}
	if len(keys) != len(sets) {
		t.Fatalf("%d distinct sets share %d keys", len(sets), len(keys))
	}
	c := NewCache()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for round := 0; round < 200; round++ {
				for i := range sets {
					rs, err := c.AnalyzeShared(cfg, sets[i])
					if err != nil || !reflect.DeepEqual(wcrts(rs), want[i]) {
						done <- fmt.Errorf("set %d: wrong responses under concurrency (err %v)", i, err)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != len(sets) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(sets))
	}
}

// Concurrent lookups of one set may each miss, since misses are not
// coalesced, but they leave one entry and count every lookup once.
func TestCacheConcurrentUse(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	c := NewCache()
	msgs := cacheMsgs()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := c.AnalyzeShared(cfg, msgs); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if hits, misses := c.Stats(); hits+misses != 8*50 || misses < 1 {
		t.Fatalf("hits/misses = %d/%d, want %d lookups with at least one miss", hits, misses, 8*50)
	}
}

func wcrts(rs []Response) []sim.Duration {
	out := make([]sim.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.WCRT
	}
	return out
}

func TestCacheObserve(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	c := NewCache()
	reg := obs.NewRegistry()
	c.Observe(reg)
	for pass := 0; pass < 2; pass++ {
		if _, err := c.AnalyzeShared(cfg, cacheMsgs()); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		for _, l := range s.Labels {
			if l.Key == "cache" && l.Value == "can" {
				got[s.Name] = s.Value
			}
		}
	}
	want := map[string]float64{
		"analysis_cache_hits_total": 1, "analysis_cache_misses_total": 1,
		"analysis_cache_entries": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache=\"can\" series = %v, want %v", got, want)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	a := cacheMsgs()
	b := cacheMsgs()
	b[1].Jitter = sim.US(100)
	if cacheKey(cfg, a) == cacheKey(cfg, b) {
		t.Fatal("jitter change must change the key")
	}
	if cacheKey(Config{BitRate: 250_000}, a) == cacheKey(cfg, a) {
		t.Fatal("bit-rate change must change the key")
	}
	// ID-permuted input analyzes identically, so it shares a key.
	perm := []*Message{a[2], a[0], a[1]}
	if cacheKey(cfg, a) != cacheKey(cfg, perm) {
		t.Fatal("permuted message order should share a key")
	}
}

// A warm AnalyzeShared is a pooled key build plus a map read: no
// allocation.
func TestCacheWarmAnalyzeSharedAllocatesNothing(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	c := NewCache()
	msgs := cacheMsgs()
	if _, err := c.AnalyzeShared(cfg, msgs); err != nil {
		t.Fatal(err)
	}
	if race.Enabled {
		t.Skip("sync.Pool discards pooled key buffers under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.AnalyzeShared(cfg, msgs) }); allocs != 0 {
		t.Fatalf("warm AnalyzeShared allocates %v times, want 0", allocs)
	}
}
