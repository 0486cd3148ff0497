package agent

import (
	"bytes"
	"testing"
)

// The causal span must ride every transport untouched: the bus hands the
// same Message value to the handler, frames round-trip it as JSON, and a
// zero span (provenance off) must not appear on the wire at all.

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
	msg.Span = 42
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(frame, []byte(`"span":42`)) {
		t.Fatalf("span missing from frame: %s", frame)
	}
	back, err := DecodeFrame(bytes.TrimRight(frame, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if back.Span != 42 {
		t.Fatalf("span lost in round trip: %d", back.Span)
	}
}

func TestZeroSpanStaysOffTheWire(t *testing.T) {
	msg, err := NewMessage("soa.profile", "soa-0", "goa", map[string]int{"cores": 4})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(frame, []byte("span")) {
		t.Fatalf("zero span leaked onto the wire: %s", frame)
	}
}
