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

// TestRingChunksNeverMove pins the unbounded ring's chunked storage: pushes
// one at a time and in batches across many chunk boundaries read back in
// order through Segments, AppendSince and All, and no push moves an entry
// already held, so a push is the only copy before a reader's own.
func TestRingChunksNeverMove(t *testing.T) {
	const n = 3*maxRingChunk + 100
	var r Ring[int]
	pushN(&r, 1000)
	var head *int
	r.Segments(func(seg []int) {
		if head == nil {
			head = &seg[0]
		}
	})
	batch := make([]int, 0, n)
	for i := 1001; i <= n; i++ {
		batch = append(batch, i)
	}
	r.Push(batch[:5000]...)
	for _, v := range batch[5000:] {
		r.Push(v)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i + 1
	}
	var segs []int
	var moved bool
	r.Segments(func(seg []int) {
		if segs == nil && &seg[0] != head {
			moved = true
		}
		segs = append(segs, seg...)
	})
	if moved {
		t.Fatal("a push moved the oldest entry")
	}
	if !equalInts(segs, want) || r.Len() != n || r.Total() != n {
		t.Fatalf("segments hold %d entries (len %d total %d), want 1..%d", len(segs), r.Len(), r.Total(), n)
	}
	for _, seen := range []uint64{0, 1, minRingChunk, minRingChunk + 1, n - 1, n} {
		if got := r.AppendSince(nil, seen); !equalInts(got, want[seen:]) {
			t.Fatalf("AppendSince(%d) = %d entries, want %d", seen, len(got), n-int(seen))
		}
	}
	if !equalInts(r.All(), want) || !equalInts(r.AppendSince(nil, 0), want) {
		t.Fatal("All joined the chunks out of order")
	}
	r.Push(n + 1)
	if got := r.AppendSince(nil, n); !equalInts(got, []int{n + 1}) {
		t.Fatalf("push after All = %v", got)
	}
}
