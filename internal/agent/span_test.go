package agent

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The causal span must ride every transport untouched: the bus hands the
// same Message value to the handler, and frames carry it in a fixed-width
// header field, zero (provenance off) included.

func TestBusPropagatesSpan(t *testing.T) {
	b := NewBus()
	var got []uint64
	b.Register("soa-0", func(m Message) { got = append(got, m.Span) })
	msg, err := NewMessage("goa.budget", "goa", "soa-0", map[string]float64{"watts": 500})
	if err != nil {
		t.Fatal(err)
	}
	msg.Span = 0xDEAD
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if err := b.SendBatch([]Message{{Type: "rack.event", From: "rack", To: "soa-0", Span: 0xBEEF}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0xDEAD || got[1] != 0xBEEF {
		t.Fatalf("delivered spans = %#x", got)
	}
}

func TestFrameRoundTripsSpan(t *testing.T) {
	msg, err := NewMessage("soa.profile", "soa-0", "goa", map[string]int{"cores": 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []uint64{42, 0} {
		msg.Span = span
		frame, err := EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(frame[6:]); got != span {
			t.Fatalf("span field holds %d, want %d: % x", got, span, frame)
		}
		back, err := DecodeFrame(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if back.Span != span {
			t.Fatalf("span %d came back as %d", span, back.Span)
		}
	}
}

// With provenance off the span is the header's zero field and nothing more:
// it adds no bytes to the frame and never appears in the payload.
func TestZeroSpanStaysOffTheWire(t *testing.T) {
	msg, err := NewMessage("soa.profile", "soa-0", "goa", map[string]int{"cores": 4})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(frame[6:]); got != 0 {
		t.Fatalf("zero span written as %d: % x", got, frame)
	}
	if bytes.Contains(frame[frameHeader:], []byte("span")) {
		t.Fatalf("zero span leaked past the header: %q", frame)
	}
	msg.Span = 42
	spanned, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spanned) != len(frame) || !bytes.Equal(spanned[frameHeader:], frame[frameHeader:]) {
		t.Fatalf("a span changed more than its header field:\n% x\n% x", frame, spanned)
	}
}
