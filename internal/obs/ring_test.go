package obs

import "testing"

// pushN pushes 1..n onto r.
func pushN(r *Ring[int], n int) {
	for i := 1; i <= n; i++ {
		r.Push(i)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRingBounds pins the one bound rule: a bound ≤ 0 (and the zero Ring)
// keeps every entry, a positive bound keeps the newest entries oldest-first
// and counts the overwritten ones.
func TestRingBounds(t *testing.T) {
	for _, r := range []*Ring[int]{NewRing[int](0), NewRing[int](-1), {}} {
		pushN(r, 5)
		if !equalInts(r.All(), []int{1, 2, 3, 4, 5}) || r.Dropped() != 0 || r.Total() != 5 {
			t.Fatalf("unbounded ring = %v dropped %d total %d", r.All(), r.Dropped(), r.Total())
		}
	}
	r := NewRing[int](2)
	pushN(r, 5)
	if !equalInts(r.All(), []int{4, 5}) || r.Len() != 2 || r.Dropped() != 3 || r.Total() != 5 {
		t.Fatalf("bounded ring = %v len %d dropped %d total %d, want [4 5] 2 3 5",
			r.All(), r.Len(), r.Dropped(), r.Total())
	}
}

// TestRingTail reads the newest n entries of a wrapped ring with
// AppendSince, the way the telemetry server's /trace/tail does.
func TestRingTail(t *testing.T) {
	r := NewRing[int](3)
	if got := r.AppendSince(nil, 0); len(got) != 0 {
		t.Fatalf("empty ring tail = %v", got)
	}
	r.Push(1, 2, 3, 4, 5)
	if got := r.AppendSince(nil, 0); !equalInts(got, []int{3, 4, 5}) {
		t.Fatalf("held window = %v, want [3 4 5]", got)
	}
	if got := r.AppendSince(nil, r.Total()-2); !equalInts(got, []int{4, 5}) {
		t.Fatalf("tail(2) = %v, want [4 5]", got)
	}
}

// TestRingPartialFill checks a bounded ring that never filled reads back in
// push order, and that AppendSince's copy does not alias the ring.
func TestRingPartialFill(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1, 2)
	got := r.AppendSince(nil, 0)
	if !equalInts(got, []int{1, 2}) || !equalInts(r.All(), []int{1, 2}) {
		t.Fatalf("partial ring = %v / %v", got, r.All())
	}
	got[0] = 99
	if r.All()[0] != 1 {
		t.Fatal("AppendSince returned the ring's own storage")
	}
}
