package sched

import (
	"fmt"
	"reflect"
	"testing"

	"autorte/internal/race"
	"autorte/internal/sim"
)

func cacheDemoSet() []Task {
	return []Task{
		{Name: "a", C: sim.MS(1), T: sim.MS(5), Priority: 3},
		{Name: "b", C: sim.MS(2), T: sim.MS(10), Priority: 2},
		{Name: "c", C: sim.MS(3), T: sim.MS(20), Priority: 1},
	}
}

func TestCacheMatchesDirectAnalysis(t *testing.T) {
	c := NewCache()
	tasks := cacheDemoSet()
	want, err := ResponseTimes(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ok, got, err := c.SchedulableShared(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached results diverge:\n got %+v\nwant %+v", i, got, want)
		}
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// key materializes a task set's cache key.
func key(tasks []Task) string { return string(appendKey(nil, tasks)) }

func TestCacheKeyCanonicalOrder(t *testing.T) {
	// Priority order differs from input order: both inputs analyze
	// identically, so they must share a key.
	a := cacheDemoSet()
	b := []Task{a[2], a[0], a[1]}
	if key(a) != key(b) {
		t.Fatal("permuted distinct-priority sets should share a key")
	}
	// Equal-priority ties are order-sensitive in the analysis (stable
	// sort keeps input order), so swapping tied tasks must change the key.
	tie1 := []Task{
		{Name: "x", C: 1, T: 10, Priority: 5},
		{Name: "y", C: 2, T: 10, Priority: 5},
	}
	tie2 := []Task{tie1[1], tie1[0]}
	if key(tie1) == key(tie2) {
		t.Fatal("reordered equal-priority tasks must not share a key")
	}
	// Any parameter change must change the key.
	mod := cacheDemoSet()
	mod[1].J = 1
	if key(a) == key(mod) {
		t.Fatal("jitter change must change the key")
	}
}

func TestCacheNilReceiverDegrades(t *testing.T) {
	var c *Cache
	tasks := cacheDemoSet()
	ok, got, err := c.SchedulableShared(tasks)
	if err != nil || !ok {
		t.Fatalf("nil cache SchedulableShared = %v, %v", ok, err)
	}
	want, _ := ResponseTimes(tasks)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache should behave like the direct analysis")
	}
	ok, err = c.Check(tasks)
	if err != nil || !ok {
		t.Fatalf("nil cache Check = %v, %v", ok, err)
	}
}

func TestKeyStableUnderConcurrentPooledUse(t *testing.T) {
	// Cache lookups build keys in pooled buffers; concurrent use across
	// distinct task sets must never bleed one set's bytes into another's
	// key and so serve it another set's results. Serial keys and direct
	// analyses are the ground truth.
	sets := make([][]Task, 16)
	want := make([]string, len(sets))
	results := make([][]Result, len(sets))
	for i := range sets {
		sets[i] = cacheDemoSet()
		sets[i][0].C = sim.MS(1) + sim.Duration(i)
		sets[i][2].Name = string(rune('a' + i))
		want[i] = key(sets[i])
		rs, err := ResponseTimes(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i] = rs
	}
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[i] == want[j] {
				t.Fatalf("distinct sets %d and %d collide", i, j)
			}
		}
	}
	c := NewCache()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for round := 0; round < 200; round++ {
				for i := range sets {
					_, got, err := c.SchedulableShared(sets[i])
					if err != nil || !reflect.DeepEqual(got, results[i]) {
						done <- fmt.Errorf("set %d: wrong results under concurrency (err %v)", i, err)
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

func TestCacheSharedResultsAliasTheEntry(t *testing.T) {
	c := NewCache()
	tasks := cacheDemoSet()
	_, a, err := c.SchedulableShared(tasks)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := c.SchedulableShared(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("shared lookups should return the cache-owned slice, not copies")
	}
}

func TestCacheConcurrentUse(t *testing.T) {
	c := NewCache()
	tasks := cacheDemoSet()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := c.Check(tasks); err != nil {
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
}

// A warm Check is a pooled key build plus a map read: no allocation, so
// the compute closure handed to the memo must not escape.
func TestCacheWarmCheckAllocatesNothing(t *testing.T) {
	c := NewCache()
	tasks := cacheDemoSet()
	if _, err := c.Check(tasks); err != nil {
		t.Fatal(err)
	}
	if race.Enabled {
		t.Skip("sync.Pool discards pooled key buffers under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.Check(tasks) }); allocs != 0 {
		t.Fatalf("warm Check allocates %v times, want 0", allocs)
	}
}
