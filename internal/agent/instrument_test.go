package agent

import (
	"testing"

	"smartoclock/internal/metrics"
)

func TestTCPInstrumentation(t *testing.T) {
	lk := metrics.NewLocked()
	a, err := NewTCPNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Instrument(lk, metrics.L("node", "a"))
	b.Instrument(lk, metrics.L("node", "b"))

	recv := make(chan Message, 4)
	b.Register("soa-0", func(m Message) { recv <- m })
	a.Register("goa", func(m Message) {})
	a.AddPeer("soa-0", b.Addr())

	msg, err := NewMessage("oc.grant", "goa", "soa-0", map[string]int{"cores": 4})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	<-recv
	// Local delivery on the sending node counts as a send too.
	local, _ := NewMessage("wi.metrics", "goa", "goa", nil)
	if err := a.Send(local); err != nil {
		t.Fatal(err)
	}

	aLabels := map[string]string{"transport": "tcp", "node": "a"}
	bLabels := map[string]string{"transport": "tcp", "node": "b"}
	waitFor(t, func() bool {
		s := lk.Snapshot().Find("transport_recvs_total", bLabels)
		return s != nil && s.Value == 1
	})
	snap := lk.Snapshot()
	if s := snap.Find("transport_sends_total", aLabels); s == nil || s.Value != 2 {
		t.Fatalf("node a sends = %+v, want 2", s)
	}
	// The remote send observed the wire frame size exactly; the local one
	// observed the (nil) payload size.
	if s := snap.Find("transport_send_bytes", aLabels); s == nil || s.Value != float64(len(frame)) {
		t.Fatalf("node a send bytes sum = %+v, want frame len %d", s, len(frame))
	}
	if s := snap.Find("transport_recv_bytes", bLabels); s == nil || s.Count != 1 {
		t.Fatalf("node b recv bytes = %+v, want 1 observation", s)
	}
	if s := snap.Find("transport_queue_depth", bLabels); s == nil || s.Value != 0 {
		t.Fatalf("node b queue depth = %+v, want 0 after drain", s)
	}

	// Unknown recipient counts as a send error.
	if err := a.Send(Message{Type: "x", From: "goa", To: "ghost"}); err == nil {
		t.Fatal("unknown recipient accepted")
	}
	if s := lk.Snapshot().Find("transport_send_errors_total", aLabels); s == nil || s.Value != 1 {
		t.Fatalf("node a send errors = %+v, want 1", s)
	}
}

// TestUninstrumentedTransportsUnchanged pins the nil-hook path: transports
// without Instrument must work exactly as before.
func TestUninstrumentedTransportsUnchanged(t *testing.T) {
	bus := NewBus()
	n := 0
	bus.Register("x", func(Message) { n++ })
	if err := bus.Send(Message{Type: "t", To: "x"}); err != nil || n != 1 {
		t.Fatalf("uninstrumented bus delivery broken: %v, n=%d", err, n)
	}
	var parked func()
	bus.Defer = func(d func()) { parked = d }
	if err := bus.Send(Message{Type: "t", To: "x"}); err != nil {
		t.Fatal(err)
	}
	parked()
	if n != 2 {
		t.Fatalf("deferred uninstrumented delivery broken: n=%d", n)
	}
}
