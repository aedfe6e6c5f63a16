package can

import (
	"testing"

	"autorte/internal/race"
	"autorte/internal/sim"
)

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
// allocation, so the compute closure handed to the memo must not escape.
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
