package flight

import (
	"errors"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/race"
)

func keyOf(k string) func([]byte) []byte {
	return func(buf []byte) []byte { return append(buf, k...) }
}

func TestMemoHitsAfterFirstMiss(t *testing.T) {
	var m Memo[int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := m.Get(keyOf("k"), func() (int, error) { calls++; return 7, nil })
		if err != nil || v != 7 {
			t.Fatalf("get %d: v=%d err=%v", i, v, err)
		}
	}
	if hits, misses := m.Stats(); calls != 1 || hits != 2 || misses != 1 {
		t.Fatalf("calls=%d hits/misses = %d/%d, want 1 and 2/1", calls, hits, misses)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMemoDoesNotCacheErrors(t *testing.T) {
	var m Memo[int]
	boom := errors.New("boom")
	if _, err := m.Get(keyOf("k"), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if m.Len() != 0 {
		t.Fatal("a failed computation was cached")
	}
	v, err := m.Get(keyOf("k"), func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("retry after error: v=%d err=%v", v, err)
	}
	if _, misses := m.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (the error and the retry)", misses)
	}
}

func TestMemoWarmHitAllocatesNothing(t *testing.T) {
	var m Memo[int]
	key, compute := keyOf("warm"), func() (int, error) { return 1, nil }
	if _, err := m.Get(key, compute); err != nil {
		t.Fatal(err)
	}
	if race.Enabled {
		t.Skip("sync.Pool discards pooled key buffers under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.Get(key, compute) }); allocs != 0 {
		t.Fatalf("warm hit allocates %v times, want 0", allocs)
	}
}

func TestMemoObserve(t *testing.T) {
	var m Memo[int]
	reg := obs.NewRegistry()
	m.Observe(reg, "test")
	_, _ = m.Get(keyOf("a"), func() (int, error) { return 1, nil })
	_, _ = m.Get(keyOf("a"), func() (int, error) { return 1, nil })
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		for _, l := range s.Labels {
			if l.Key == "cache" && l.Value == "test" {
				got[s.Name] = s.Value
			}
		}
	}
	want := map[string]float64{
		"analysis_cache_hits_total": 1, "analysis_cache_misses_total": 1,
		"analysis_cache_entries": 1,
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Fatalf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
}
