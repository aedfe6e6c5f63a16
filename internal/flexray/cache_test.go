package flexray

import (
	"reflect"
	"testing"

	"autorte/internal/race"
	"autorte/internal/sim"
)

func synthProblem() (Config, []Signal) {
	cfg := Config{
		StaticSlots: 8, SlotLength: sim.US(100),
		Minislots: 40, MinislotLength: sim.US(5), NIT: sim.US(100),
	}
	sigs := []Signal{
		{Name: "s1", Period: sim.MS(10)},
		{Name: "s2", Period: sim.MS(20)},
		{Name: "s3", Period: sim.MS(40)},
	}
	return cfg, sigs
}

func TestSynthCacheMatchesDirect(t *testing.T) {
	cfg, sigs := synthProblem()
	c := NewSynthCache()
	want, err := Synthesize(cfg, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := c.SynthesizeShared(cfg, sigs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached schedule diverges", pass)
		}
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

func TestSynthCacheKeys(t *testing.T) {
	cfg, sigs := synthProblem()
	// A config change must change the key.
	cfg2 := cfg
	cfg2.StaticSlots = 4
	if cacheKey(cfg, sigs) == cacheKey(cfg2, sigs) {
		t.Fatal("config change must change the key")
	}
	// Distinct-period permutations share a key; equal-period ties do not.
	perm := []Signal{sigs[2], sigs[0], sigs[1]}
	if cacheKey(cfg, sigs) != cacheKey(cfg, perm) {
		t.Fatal("permuted distinct-period signals should share a key")
	}
	tie := []Signal{{Name: "a", Period: sim.MS(10)}, {Name: "b", Period: sim.MS(10)}}
	tieSwap := []Signal{tie[1], tie[0]}
	if cacheKey(cfg, tie) == cacheKey(cfg, tieSwap) {
		t.Fatal("reordered equal-period signals must not share a key")
	}
}

func TestSynthCacheNilReceiver(t *testing.T) {
	cfg, sigs := synthProblem()
	var c *SynthCache
	got, err := c.SynthesizeShared(cfg, sigs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Synthesize(cfg, sigs)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache should behave like the direct synthesis")
	}
}

// A warm SynthesizeShared is a pooled key build plus a map read: no
// allocation, so the compute closure handed to the memo must not escape.
func TestSynthCacheWarmSharedAllocatesNothing(t *testing.T) {
	cfg, sigs := synthProblem()
	c := NewSynthCache()
	if _, err := c.SynthesizeShared(cfg, sigs); err != nil {
		t.Fatal(err)
	}
	if race.Enabled {
		t.Skip("sync.Pool discards pooled key buffers under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.SynthesizeShared(cfg, sigs) }); allocs != 0 {
		t.Fatalf("warm SynthesizeShared allocates %v times, want 0", allocs)
	}
}
