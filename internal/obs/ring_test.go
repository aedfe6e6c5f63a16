package obs

import "testing"

func TestNilRingDiscards(t *testing.T) {
	var r *Ring[int]
	r.Push(1)
	if r.Len() != 0 || r.Cap() != 0 || r.Total() != 0 {
		t.Fatal("nil ring reported non-zero state")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil ring snapshot not nil")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("empty ring snapshot = %v, want nil", got)
	}
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	if got := r.Snapshot(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("unwrapped snapshot = %v", got)
	}
	for i := 4; i <= 10; i++ {
		r.Push(i)
	}
	got := r.Snapshot()
	want := []int{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("wrapped snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapped snapshot = %v, want %v (oldest-first)", got, want)
		}
	}
	if r.Len() != 4 || r.Cap() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d cap=%d total=%d, want 4/4/10", r.Len(), r.Cap(), r.Total())
	}
}

func TestRingSnapshotIsCopy(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	snap := r.Snapshot()
	r.Push(2)
	r.Push(3)
	if snap[0] != 1 {
		t.Fatal("snapshot mutated by later pushes")
	}
}

func TestRingDefaultCap(t *testing.T) {
	r := NewRing[int](0)
	if r.Cap() != DefaultRingCap {
		t.Fatalf("cap = %d, want DefaultRingCap", r.Cap())
	}
	var zero Ring[int]
	zero.Push(1) // zero-value ring adopts the default cap rather than dropping
	if zero.Cap() != DefaultRingCap || zero.Len() != 1 {
		t.Fatalf("zero-value ring cap=%d len=%d", zero.Cap(), zero.Len())
	}
}
