package agent

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Watts float64 `json:"watts"`
	Cores int     `json:"cores"`
}

func TestNewMessageAndDecode(t *testing.T) {
	m, err := NewMessage("oc.request", "soa-1", "goa", payload{Watts: 42.5, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "oc.request" || m.From != "soa-1" || m.To != "goa" {
		t.Fatalf("envelope = %+v", m)
	}
	got, err := Decode[payload](m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Watts != 42.5 || got.Cores != 4 {
		t.Fatalf("payload = %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode[payload](Message{Type: "x"}); err == nil {
		t.Fatal("expected error on empty payload")
	}
	m := Message{Type: "x", Payload: []byte(`{"watts": "nope"}`)}
	if _, err := Decode[payload](m); err == nil {
		t.Fatal("expected error on type mismatch")
	}
}

func TestNewMessageNilPayload(t *testing.T) {
	m, err := NewMessage("ping", "a", "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != 0 {
		t.Fatal("nil payload must stay empty")
	}
}

func TestBusDelivery(t *testing.T) {
	b := NewBus()
	var got Message
	b.Register("goa", func(m Message) { got = m })
	msg, _ := NewMessage("t", "a", "goa", nil)
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got.Type != "t" {
		t.Fatal("message not delivered")
	}
}

func TestBusUnknownRecipient(t *testing.T) {
	b := NewBus()
	msg, _ := NewMessage("t", "a", "ghost", nil)
	if err := b.Send(msg); err == nil {
		t.Fatal("expected error")
	}
}

func TestBusDefer(t *testing.T) {
	b := NewBus()
	delivered := false
	b.Register("x", func(Message) { delivered = true })
	var queue []func()
	b.Defer = func(f func()) { queue = append(queue, f) }
	msg, _ := NewMessage("t", "a", "x", nil)
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("deferred send delivered synchronously")
	}
	queue[0]()
	if !delivered {
		t.Fatal("deferred thunk did not deliver")
	}
}

func TestBusClose(t *testing.T) {
	b := NewBus()
	b.Register("x", func(Message) {})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	msg, _ := NewMessage("t", "a", "x", nil)
	if err := b.Send(msg); err == nil {
		t.Fatal("send after close must fail")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

func TestTCPNodeRoundTrip(t *testing.T) {
	n1, err := NewTCPNode("node1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := NewTCPNode("node2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	var mu sync.Mutex
	var got []Message
	n2.Register("soa-1", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	n1.AddPeer("soa-1", n2.Addr())

	msg, _ := NewMessage("goa.budget", "goa", "soa-1", payload{Watts: 550})
	if err := n1.Send(msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	p, err := Decode[payload](got[0])
	if err != nil || p.Watts != 550 {
		t.Fatalf("payload = %+v, err=%v", p, err)
	}
}

func TestTCPNodeLocalDelivery(t *testing.T) {
	n, err := NewTCPNode("node", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	delivered := false
	n.Register("local", func(Message) { delivered = true })
	msg, _ := NewMessage("t", "x", "local", nil)
	if err := n.Send(msg); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("local delivery must be synchronous")
	}
}

func TestTCPNodeUnknownRecipient(t *testing.T) {
	n, err := NewTCPNode("node", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	msg, _ := NewMessage("t", "x", "ghost", nil)
	if err := n.Send(msg); err == nil {
		t.Fatal("expected error")
	}
}

func TestTCPNodeManyMessages(t *testing.T) {
	n1, err := NewTCPNode("node1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := NewTCPNode("node2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	var mu sync.Mutex
	count := 0
	n2.Register("sink", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	n1.AddPeer("sink", n2.Addr())
	const total = 200
	for i := 0; i < total; i++ {
		msg, _ := NewMessage("tick", "src", "sink", payload{Cores: i})
		if err := n1.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == total
	})
}

func TestTCPNodeSendAfterClose(t *testing.T) {
	n, err := NewTCPNode("node", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	msg, _ := NewMessage("t", "x", "y", nil)
	if err := n.Send(msg); err == nil {
		t.Fatal("send after close must fail")
	}
	// Double close is fine.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBusConcurrentSendAndRegister(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	received := 0
	b.Register("sink", func(Message) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg, _ := NewMessage("t", "src", "sink", nil)
				if err := b.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent churn on unrelated registrations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.Register("churn", func(Message) {})
		}
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if received != 800 {
		t.Fatalf("received = %d, want 800", received)
	}
}

func TestTCPNodeNameAndReconnect(t *testing.T) {
	n1, err := NewTCPNode("node1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := NewTCPNode("node2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	n2.Register("sink", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	n1.AddPeer("sink", n2.Addr())
	msg, _ := NewMessage("t", "src", "sink", nil)
	if err := n1.Send(msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	})
	// Kill the receiver: sends eventually fail (the cached connection is
	// dropped and the redial is refused).
	addr := n2.Addr()
	n2.Close()
	failed := false
	for i := 0; i < 20; i++ {
		if err := n1.Send(msg); err != nil {
			failed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding against a closed peer")
	}
	_ = addr
}

// TestTCPCarriesEveryBodyKind sends one message of each body kind — the
// rig's profile, budget and rack event, and a raw-JSON oc.request — across
// a loopback link and compares what arrives field for field.
func TestTCPCarriesEveryBodyKind(t *testing.T) {
	n1, err := NewTCPNode("node1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := NewTCPNode("node2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got := make(chan Message, 8)
	sent := frameSamples(t)
	for _, msg := range sent {
		n2.Register(msg.To, func(m Message) { got <- m })
		n1.AddPeer(msg.To, n2.Addr())
	}
	for _, msg := range sent {
		if err := n1.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		select {
		case m := <-got:
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("message %d arrived as\n%+v\nwant\n%+v", i, m, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d (%s) never arrived", i, want.Type)
		}
	}
}

// TestTCPNodeSkipsBadFramesAndDropsOversizedLinks writes raw bytes at a
// node: a frame that fails to decode is skipped and the link keeps
// delivering, while a length over MaxFrameBytes closes that link, unread,
// and the node keeps accepting new ones.
func TestTCPNodeSkipsBadFramesAndDropsOversizedLinks(t *testing.T) {
	n, err := NewTCPNode("node", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got := make(chan Message, 8)
	n.Register("soa/a", func(m Message) { got <- m })
	good, err := EncodeFrame(BudgetMessage("goa.budget", "goa", "soa/a", Budget{Watts: 300}))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[4] = 99 // unknown version
	expect := func(what string) {
		t.Helper()
		select {
		case m := <-got:
			if m.Budget.Watts != 300 {
				t.Fatalf("%s: delivered %+v", what, m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: nothing delivered", what)
		}
	}

	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(append(append([]byte(nil), bad...), good...)); err != nil {
		t.Fatal(err)
	}
	expect("after a malformed frame")

	over := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes)
	if _, err := c.Write(append(over, good...)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("link after an over-limit length: read err = %v, want it closed", err)
	}
	select {
	case m := <-got:
		t.Fatalf("delivered %+v from behind an over-limit length", m)
	default:
	}

	c2, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write(good); err != nil {
		t.Fatal(err)
	}
	expect("on a new link")
}
