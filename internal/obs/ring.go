package obs

// Ring is an append-only sequence that keeps its newest entries. A bounded
// ring holds at most its bound, and each push beyond it overwrites the
// oldest entry and counts it as dropped; a bound ≤ 0 keeps every entry. The
// bound is fixed when the ring is made. The zero Ring is unbounded and
// ready to use.
//
// An unbounded ring grows in chunks, each twice the last up to
// maxRingChunk entries, and never moves an entry it holds: a push copies
// the entry once, and readers that go through Segments or AppendSince copy
// it once more into whatever they build. Only All, which must return one
// slice, joins the chunks.
//
// It is the one ring behind the tracer, the provenance recorder and the
// telemetry server's tails. It is not safe for concurrent use.
type Ring[T any] struct {
	// buf is a bounded ring's window, or an unbounded ring's newest chunk.
	buf []T
	// chunks are an unbounded ring's earlier chunks, oldest first, each
	// full; held counts their entries.
	chunks  [][]T
	held    int
	bound   int // 0 = unbounded
	start   int // index of the oldest entry once a bounded ring has wrapped
	dropped uint64
}

// Chunk sizes of an unbounded ring: the first chunk holds minRingChunk
// entries, and each next one twice its predecessor, up to maxRingChunk.
const (
	minRingChunk = 64
	maxRingChunk = 8192
)

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
		for len(vs) > 0 {
			if len(r.buf) == cap(r.buf) {
				r.grow()
			}
			n := min(cap(r.buf)-len(r.buf), len(vs))
			r.buf = append(r.buf, vs[:n]...)
			vs = vs[n:]
		}
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

// grow retires an unbounded ring's full newest chunk and starts the next.
func (r *Ring[T]) grow() {
	size := minRingChunk
	if c := cap(r.buf); c > 0 {
		r.chunks = append(r.chunks, r.buf)
		r.held += len(r.buf)
		size = min(max(2*c, minRingChunk), maxRingChunk)
	}
	r.buf = make([]T, 0, size)
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return r.held + len(r.buf) }

// Dropped returns how many entries a bounded ring overwrote.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Total returns how many entries were ever pushed: the held ones plus the
// dropped ones.
func (r *Ring[T]) Total() uint64 { return uint64(r.Len()) + r.dropped }

// Segments calls fn on the held entries, oldest first, as consecutive
// segments of the ring's own storage: at most two for a bounded ring, one
// per chunk for an unbounded one. fn must not mutate or retain them.
func (r *Ring[T]) Segments(fn func([]T)) {
	for _, c := range r.chunks {
		fn(c)
	}
	if r.start > 0 {
		fn(r.buf[r.start:])
		fn(r.buf[:r.start])
		return
	}
	if len(r.buf) > 0 {
		fn(r.buf)
	}
}

// AppendSince appends the entries pushed after the first seen ones to dst,
// oldest first, and returns the extended slice. Overwritten entries are
// gone, so at most Len entries are appended. Only the segments holding the
// new entries are copied, so an incremental consumer that keeps Total as
// its next seen pays for what changed, not for what is held.
// AppendSince(nil, 0) is a copy of the held window.
func (r *Ring[T]) AppendSince(dst []T, seen uint64) []T {
	total := r.Total()
	if seen >= total {
		return dst
	}
	// skip is how many held entries precede the first fresh one.
	skip := 0
	if d := total - seen; d < uint64(r.Len()) {
		skip = r.Len() - int(d)
	}
	r.Segments(func(seg []T) {
		if skip >= len(seg) {
			skip -= len(seg)
			return
		}
		dst = append(dst, seg[skip:]...)
		skip = 0
	})
	return dst
}

// All returns the held entries oldest first. Until a bounded ring wraps
// the slice is the ring's own, and callers must not mutate it; after, it is
// a fresh unwrapped copy. An unbounded ring of several chunks joins them
// into one, which it keeps in their place. It is for end-of-run readers: a
// consumer polling for new entries should use AppendSince, which copies
// only those, and one that can read segments should use Segments, which
// copies nothing.
func (r *Ring[T]) All() []T {
	if r.start == 0 && len(r.chunks) == 0 {
		return r.buf
	}
	out := r.AppendSince(make([]T, 0, r.Len()), r.dropped)
	if r.bound == 0 {
		r.buf, r.chunks, r.held = out, nil, 0
	}
	return out
}
