package obs

// Ring is an append-only sequence that keeps its newest entries. A bounded
// ring holds at most its bound, and each push beyond it overwrites the
// oldest entry and counts it as dropped; a bound ≤ 0 keeps every entry. The
// bound is fixed when the ring is made. The zero Ring is unbounded and
// ready to use.
//
// It is the one ring behind the tracer, the provenance recorder and the
// telemetry server's tails. It is not safe for concurrent use.
type Ring[T any] struct {
	buf     []T
	bound   int // 0 = unbounded
	start   int // index of the oldest entry once a bounded ring has wrapped
	dropped uint64
}

// NewRing returns a ring that keeps the newest bound entries, or every
// entry when bound ≤ 0. A bounded ring allocates its bound up front: one
// allocation in place of a run of regrowths that would copy the window
// several times over.
func NewRing[T any](bound int) *Ring[T] {
	if bound <= 0 {
		return &Ring[T]{}
	}
	return &Ring[T]{buf: make([]T, 0, bound), bound: bound}
}

// Push appends vs in order, overwriting the oldest entries of a full
// bounded ring.
func (r *Ring[T]) Push(vs ...T) {
	if r.bound == 0 {
		r.buf = append(r.buf, vs...)
		return
	}
	for _, v := range vs {
		if len(r.buf) < r.bound {
			r.buf = append(r.buf, v)
			continue
		}
		r.buf[r.start] = v
		if r.start++; r.start == r.bound {
			r.start = 0
		}
		r.dropped++
	}
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped returns how many entries a bounded ring overwrote.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Total returns how many entries were ever pushed: the held ones plus the
// dropped ones.
func (r *Ring[T]) Total() uint64 { return uint64(len(r.buf)) + r.dropped }

// AppendSince appends the entries pushed after the first seen ones to dst,
// oldest first, and returns the extended slice. Overwritten entries are
// gone, so at most Len entries are appended. Only the (at most two)
// segments holding the new entries are read, so an incremental consumer
// that keeps Total as its next seen pays for what changed, not for what is
// held. AppendSince(nil, 0) is a copy of the held window.
func (r *Ring[T]) AppendSince(dst []T, seen uint64) []T {
	total := r.Total()
	if seen >= total {
		return dst
	}
	n := len(r.buf)
	fresh := n
	if d := total - seen; d < uint64(n) {
		fresh = int(d)
	}
	// The oldest entry sits at start, so the first fresh one is n-fresh
	// places after it.
	i := r.start + n - fresh
	if i >= n {
		i -= n
	}
	if end := i + fresh; end <= n {
		return append(dst, r.buf[i:end]...)
	}
	dst = append(dst, r.buf[i:]...)
	return append(dst, r.buf[:i+fresh-n]...)
}

// All returns the held entries oldest first. Until a bounded ring wraps
// the slice is the ring's own, and callers must not mutate it; after, it is
// a fresh unwrapped copy. It is for end-of-run readers: a consumer polling
// for new entries should use AppendSince, which copies only those.
func (r *Ring[T]) All() []T {
	if r.start == 0 {
		return r.buf
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}
