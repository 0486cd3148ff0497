package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// frameSamples are one message of each body kind.
func frameSamples(t testing.TB) []Message {
	raw, err := NewMessage("oc.request", "wi", "server-y", map[string]any{"vm": "web", "cores": 4})
	if err != nil {
		t.Fatal(err)
	}
	raw.Span = 7
	profile := ProfileMessage("soa.profile", "soa/lv-00", "goa",
		Profile{Server: "lv-00", MedianWatts: 412.5, Requested: 16, Granted: 8, CoreCost: 3.1})
	profile.Span = 1 << 40
	budget := BudgetMessage("goa.budget", "goa", "soa/lv-01", Budget{Watts: 431.5})
	event := RackEventMessage("rack.event", "rack", "soa/lv-02", RackEvent{Kind: 2, Power: 1100.25, Limit: math.Copysign(0, -1)})
	event.Span = math.MaxUint64
	return []Message{raw, profile, budget, event}
}

// mustFrame encodes msg or fails the test.
func mustFrame(t testing.TB, msg Message) []byte {
	t.Helper()
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// checkReencodes asserts that an accepted frame decoded to a routable
// message whose encoding is the frame itself.
func checkReencodes(t *testing.T, frame []byte, msg Message) {
	t.Helper()
	if msg.Type == "" || msg.To == "" {
		t.Fatalf("decoder accepted unroutable message %+v from % x", msg, frame)
	}
	again, err := EncodeFrame(msg)
	if err != nil {
		t.Fatalf("re-encode of accepted message failed: %v (%+v)", err, msg)
	}
	if !bytes.Equal(again, frame) {
		t.Fatalf("encode(decode(frame)) differs:\n% x\n% x", frame, again)
	}
}

// TestFrameRoundTrip: every body kind decodes to the message it was built
// from, field for field, and re-encodes to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	for _, msg := range frameSamples(t) {
		frame := mustFrame(t, msg)
		if len(frame) != frameSize(msg) {
			t.Errorf("%s: frame %d bytes, frameSize says %d", msg.Type, len(frame), frameSize(msg))
		}
		got, err := DecodeFrame(frame, nil)
		if err != nil {
			t.Fatalf("%s: decode of own encoding failed: %v", msg.Type, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip changed the message:\n%+v\n->\n%+v", msg, got)
		}
		checkReencodes(t, frame, got)
	}
}

// TestFrameLayout pins a budget frame byte for byte.
func TestFrameLayout(t *testing.T) {
	msg := BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: 1})
	msg.Span = 0x0102
	want := binary.LittleEndian.AppendUint32(nil, 1+1+8+(2+10)+(2+3)+(2+5)+8)
	want = append(want, frameVersion, byte(BodyBudget), 0x02, 0x01, 0, 0, 0, 0, 0, 0)
	want = append(append(want, 10, 0), "goa.budget"...)
	want = append(append(want, 3, 0), "goa"...)
	want = append(append(want, 5, 0), "soa/a"...)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(1))
	if got := mustFrame(t, msg); !bytes.Equal(got, want) {
		t.Fatalf("budget frame\n% x\nwant\n% x", got, want)
	}
}

// edit returns a copy of frame with f applied.
func edit(frame []byte, f func(b []byte) []byte) []byte {
	return f(append([]byte(nil), frame...))
}

// TestDecodeFrameRejects: each refusal of DecodeFrame, with an error and no
// panic.
func TestDecodeFrameRejects(t *testing.T) {
	budget := mustFrame(t, BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: 300}))
	// Offsets into budget: the version, the body kind and the type's
	// length prefix.
	const version, kind, typeLen = 4, 5, 14
	setLength := func(n uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b, n); return b }
	}
	cases := map[string][]byte{
		"empty":                 {},
		"short length":          {1, 0},
		"no version":            {0, 0, 0, 0},
		"unknown version":       edit(budget, func(b []byte) []byte { b[version] = 2; return b }),
		"version zero":          edit(budget, func(b []byte) []byte { b[version] = 0; return b }),
		"unknown body kind":     edit(budget, func(b []byte) []byte { b[kind] = 9; return b }),
		"truncated":             budget[:len(budget)-1],
		"length says more":      edit(budget, setLength(uint32(len(budget)-3))),
		"length says less":      edit(budget, setLength(uint32(len(budget)-5))),
		"bytes after the frame": append(append([]byte(nil), budget...), 0),
		"bytes after the body": edit(budget, func(b []byte) []byte {
			b = append(b, 0)
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}),
		"string past the end": edit(budget, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[typeLen:], 0xFFFF)
			return b
		}),
		"empty type": appendFrame(nil, BudgetMessage("", "goa", "soa/a", Budget{Watts: 1})),
		"empty to":   appendFrame(nil, BudgetMessage("goa.budget", "goa", "", Budget{Watts: 1})),
		"over limit": edit(budget, setLength(MaxFrameBytes)),
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, m := range []Message{
			ProfileMessage("soa.profile", "soa/a", "goa", Profile{Server: "a", MedianWatts: bad}),
			ProfileMessage("soa.profile", "soa/a", "goa", Profile{Server: "a", CoreCost: bad}),
			BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: bad}),
			RackEventMessage("rack.event", "rack", "soa/a", RackEvent{Power: bad}),
			RackEventMessage("rack.event", "rack", "soa/a", RackEvent{Limit: bad}),
		} {
			cases[fmt.Sprintf("%v in %s #%d", bad, m.Type, i)] = appendFrame(nil, m)
		}
	}
	for name, in := range cases {
		if msg, err := DecodeFrame(in, nil); err == nil {
			t.Errorf("%s: DecodeFrame(% x) accepted %+v", name, in, msg)
		}
	}
}

// TestDecodeFrameOversized: a length over MaxFrameBytes is refused, whatever
// follows it.
func TestDecodeFrameOversized(t *testing.T) {
	big := make([]byte, MaxFrameBytes+1)
	binary.LittleEndian.PutUint32(big, uint32(len(big)-4))
	copy(big[4:], mustFrame(t, frameSamples(t)[0])[4:])
	if _, err := DecodeFrame(big, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestEncodeFrameRejectsUnroutableAndOversized(t *testing.T) {
	if _, err := EncodeFrame(Message{Type: "", To: "goa"}); err == nil {
		t.Error("empty type accepted")
	}
	if _, err := EncodeFrame(Message{Type: "x", To: ""}); err == nil {
		t.Error("empty to accepted")
	}
	huge := Message{Type: "x", To: "y", Payload: make([]byte, MaxFrameBytes)}
	if _, err := EncodeFrame(huge); err == nil {
		t.Error("oversized frame encoded")
	}
	long := Message{Type: strings.Repeat("t", maxFrameString+1), To: "y"}
	if _, err := EncodeFrame(long); err == nil {
		t.Error("type longer than its length prefix encoded")
	}
	if _, err := EncodeFrame(BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: math.NaN()})); err == nil {
		t.Error("NaN budget encoded")
	}
	if _, err := EncodeFrame(Message{Type: "x", To: "y", Body: 9}); err == nil {
		t.Error("unknown body kind encoded")
	}
	dst := []byte("keep")
	if got, err := AppendFrame(dst, Message{Type: "x"}); err == nil || string(got) != "keep" {
		t.Errorf("failed append returned %q, %v; want the buffer unchanged and an error", got, err)
	}
}

// readAll splits a stream the way the TCP read loop does, returning the
// frames read and the error that ended the stream.
func readAll(stream []byte) ([][]byte, error) {
	r := bufio.NewReader(bytes.NewReader(stream))
	var frames [][]byte
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			return frames, err
		}
		frames = append(frames, append([]byte(nil), buf...))
	}
}

// TestReadFrameStream: a stream of whole frames reads back frame for frame;
// cut anywhere, it ends with an io error after the whole frames before the
// cut; and a length over MaxFrameBytes ends it before the body is read.
func TestReadFrameStream(t *testing.T) {
	var stream []byte
	var ends []int
	for _, msg := range frameSamples(t) {
		stream = append(stream, mustFrame(t, msg)...)
		ends = append(ends, len(stream))
	}
	for cut := 0; cut <= len(stream); cut++ {
		frames, err := readAll(stream[:cut])
		whole := 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
		}
		if len(frames) != whole {
			t.Fatalf("cut at %d: read %d frames, want %d", cut, len(frames), whole)
		}
		if err == nil || errors.Is(err, errFrameTooLarge) {
			t.Fatalf("cut at %d: stream ended with %v, want an io error", cut, err)
		}
	}

	over := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes-3)
	r := bufio.NewReader(io.MultiReader(bytes.NewReader(over), strings.NewReader("body")))
	if _, err := readFrame(r, nil); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("over-limit length: err = %v, want errFrameTooLarge", err)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "body" {
		t.Fatalf("read %d bytes of the body after an over-limit length", 4-len(rest))
	}
}

// TestAppendFrameAllocs: framing a budget into a reused buffer allocates
// nothing, and neither does building a rig budget or rack-event message.
func TestAppendFrameAllocs(t *testing.T) {
	msg := BudgetMessage("goa.budget", "goa", "soa/lv-01", Budget{Watts: 431.5})
	buf := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendFrame(buf[:0], msg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendFrame of a budget allocates %.1f objects, want 0", allocs)
	}
	var sink Message
	if allocs := testing.AllocsPerRun(100, func() {
		sink = BudgetMessage("goa.budget", "goa", "soa/lv-01", Budget{Watts: 431.5})
		sink = RackEventMessage("rack.event", "rack", "soa/lv-01", RackEvent{Kind: 1, Power: 900, Limit: 1000})
	}); allocs != 0 {
		t.Fatalf("building rig messages allocates %.1f objects, want 0", allocs)
	}
	_ = sink
}

// TestDecodeFrameAllocs: decoding a budget frame allocates at most the three
// strings it returns, and nothing once a stream's name table holds them.
func TestDecodeFrameAllocs(t *testing.T) {
	frame := mustFrame(t, BudgetMessage("goa.budget", "goa", "soa/lv-01", Budget{Watts: 431.5}))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(frame, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("DecodeFrame of a budget allocates %.1f objects, want <= 3", allocs)
	}
	names := make(FrameNames)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(frame, names); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding a budget through a name table allocates %.1f objects, want 0", allocs)
	}
}

// TestFrameNamesBounded: a stream's name table interns up to maxFrameNames
// strings and then stops growing, still decoding every frame.
func TestFrameNamesBounded(t *testing.T) {
	names := make(FrameNames)
	for i := 0; i < maxFrameNames+10; i++ {
		to := fmt.Sprintf("soa/%d", i)
		msg, err := DecodeFrame(mustFrame(t, BudgetMessage("goa.budget", "goa", to, Budget{Watts: 1})), names)
		if err != nil || msg.To != to {
			t.Fatalf("frame %d decoded to %+v, %v", i, msg, err)
		}
	}
	if len(names) != maxFrameNames {
		t.Fatalf("name table holds %d strings, want the bound %d", len(names), maxFrameNames)
	}
}

// FuzzMessageDecode throws arbitrary bytes at the frame decoder: it must
// never panic, and anything it accepts must be a routable message whose
// encoding is the input, byte for byte.
func FuzzMessageDecode(f *testing.F) {
	samples := frameSamples(f)
	for _, msg := range samples {
		f.Add(mustFrame(f, msg))
	}
	budget := mustFrame(f, samples[2])
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"goa.budget","to":"soa/s1","payload":123.5}`))
	f.Add(budget[:len(budget)-1])
	f.Add(append(append([]byte(nil), budget...), 0))
	f.Add(edit(budget, func(b []byte) []byte { b[4] = 2; return b }))
	f.Add(edit(budget, func(b []byte) []byte { b[5] = 9; return b }))
	f.Add(edit(budget, func(b []byte) []byte { binary.LittleEndian.PutUint32(b, MaxFrameBytes); return b }))
	f.Add(appendFrame(nil, BudgetMessage("goa.budget", "goa", "", Budget{Watts: 1})))
	f.Add(appendFrame(nil, BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: math.NaN()})))
	f.Add(appendFrame(nil, Message{Type: "ping", To: "b"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeFrame(data, nil)
		if err != nil {
			return
		}
		checkReencodes(t, data, msg)
	})
}

// FuzzFrameStream feeds a byte stream to the TCP read loop's framing and
// decoding, name table included: it must never panic, every frame it reads
// either decodes to a routable message that re-encodes to the frame or
// errors, and a stream ends only on an io error or an over-limit length.
func FuzzFrameStream(f *testing.F) {
	var stream []byte
	for _, msg := range frameSamples(f) {
		stream = append(stream, mustFrame(f, msg)...)
	}
	// The seeds keep their historical order: a doubled frame, frames around
	// garbage, bare bytes, then a truncated frame.
	gf := mustFrame(f, frameSamples(f)[1])
	f.Add(append(append([]byte(nil), gf...), gf...))
	f.Add(append(append(append([]byte(nil), gf...), 3, 0, 0, 0, 'b', 'a', 'd'), gf...))
	f.Add([]byte("\n\n\n"))
	f.Add(gf[:len(gf)/2])
	for cut := 0; cut <= len(stream); cut++ {
		f.Add(stream[:cut])
	}
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes), stream...))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := readAll(data)
		if err == nil {
			t.Fatal("stream ended without an error")
		}
		names := make(FrameNames)
		for _, frame := range frames {
			if msg, err := DecodeFrame(frame, names); err == nil {
				checkReencodes(t, frame, msg)
			}
		}
	})
}
