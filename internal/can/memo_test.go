package can

import (
	"reflect"
	"testing"

	"autorte/internal/sim"
)

// cacheKey materializes a message set's memo key.
func cacheKey(cfg Config, msgs []*Message) string { return string(appendKey(nil, cfg, msgs)) }

func cacheMsgs() []*Message {
	return []*Message{
		{Name: "m1", ID: 0x100, DLC: 4, Period: sim.MS(10)},
		{Name: "m2", ID: 0x101, DLC: 8, Period: sim.MS(20)},
		{Name: "m3", ID: 0x102, DLC: 2, Period: sim.MS(50)},
	}
}

// The memo serves the direct analysis's responses, misses once per set
// and hits after.
func TestCacheMatchesDirectAnalysis(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	var c Memo
	want, err := Analyze(cfg, cacheMsgs())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, hit, err := c.Analyze(cfg, cacheMsgs()) // fresh pointers every pass
		if err != nil {
			t.Fatal(err)
		}
		if hit != (pass > 0) {
			t.Fatalf("pass %d: hit = %v", pass, hit)
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// A failed analysis is returned but not stored: the same set misses
// again.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	var c Memo
	msgs := cacheMsgs()
	msgs[1].Period = 0 // the analysis needs a period
	for pass := 0; pass < 2; pass++ {
		if _, hit, err := c.Analyze(cfg, msgs); err == nil || hit {
			t.Fatalf("pass %d: a period-less frame analyzed (err %v, hit %v)", pass, err, hit)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (errors are not stored)", c.Len())
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

// A warm Analyze is a key build into the memo's scratch buffer plus a
// map read that hands back the shared stored responses: no allocation.
func TestCacheWarmAnalyzeSharedAllocatesNothing(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	var c Memo
	msgs := cacheMsgs()
	if _, _, err := c.Analyze(cfg, msgs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = c.Analyze(cfg, msgs) }); allocs != 0 {
		t.Fatalf("warm Analyze allocates %v times, want 0", allocs)
	}
}

// The memo reports each lookup's outcome and its size — the figures an
// owner publishes as its cache="can" hit, miss and entry series. Two
// passes over one set are one miss, one hit and one entry.
func TestCacheObserve(t *testing.T) {
	cfg := Config{BitRate: 500_000}
	var c Memo
	got := map[string]float64{}
	for pass := 0; pass < 2; pass++ {
		_, hit, err := c.Analyze(cfg, cacheMsgs())
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			got["analysis_cache_hits_total"]++
		} else {
			got["analysis_cache_misses_total"]++
		}
	}
	got["analysis_cache_entries"] = float64(c.Len())
	want := map[string]float64{
		"analysis_cache_hits_total": 1, "analysis_cache_misses_total": 1,
		"analysis_cache_entries": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache=\"can\" figures = %v, want %v", got, want)
	}
}
