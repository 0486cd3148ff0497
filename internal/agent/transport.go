// Package agent provides the messaging layer the SmartOClock agents use to
// talk to each other: Server Overclocking Agents report power and overclock
// templates to the Global Overclocking Agent, the gOA pushes heterogeneous
// power budgets back, the rack manager broadcasts warnings, and Workload
// Intelligence agents exchange metrics and scale-out signals.
//
// Two transports share one interface: an in-process bus (used by the
// simulator, optionally with artificial delivery delay), which hands
// messages over by value, and a TCP transport (used by the live plane and the
// distributed example to run agents as real networked processes), which
// writes each message as one length-prefixed, versioned binary frame. The
// rack rig's three control bodies travel typed, in fixed-width fields;
// anything else travels as a raw JSON payload. Production deployments would
// swap in a hypervisor shared-memory channel or locally-terminated endpoint
// for the VM-to-host hop (§IV).
package agent

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// Message is the envelope every agent exchange uses. Its body is one of
// four kinds: a raw JSON Payload, or one of the three typed control-plane
// bodies the rack rig exchanges (Profile, Budget, RackEvent), carried by
// value so building one allocates nothing. Body says which; the other body
// fields are zero.
type Message struct {
	// Type names the message's meaning, e.g. "oc.request" or "goa.budget".
	Type string
	// From is the sender's agent name.
	From string
	// To is the recipient's agent name.
	To string
	// Payload carries a raw body as JSON.
	Payload json.RawMessage
	// Span is the causal span ID of the send (internal/causal), threading
	// provenance across agents: a handler that makes a decision because of
	// this message records the decision with Parent = Span. It is zero
	// whenever provenance is off.
	Span uint64

	Body      BodyKind
	Profile   Profile
	Budget    Budget
	RackEvent RackEvent
}

// BodyKind says which body a Message carries.
type BodyKind uint8

// The body kinds. BodyRaw is the zero value: Payload, possibly empty.
const (
	BodyRaw BodyKind = iota
	BodyProfile
	BodyBudget
	BodyRackEvent
)

// Profile is an sOA's report to the gOA (§IV-C): its recent median power
// and overclock demand, and the extra watts of one fully overclocked core.
type Profile struct {
	Server      string
	MedianWatts float64
	Requested   float64
	Granted     float64
	CoreCost    float64
}

// Budget is a gOA's power budget push to one sOA.
type Budget struct {
	Watts float64
}

// RackEvent is a rack manager warning, cap or release notification.
type RackEvent struct {
	Kind  int64
	Power float64
	Limit float64
}

// Finite reports whether every float of p is finite. NaN and ±Inf never
// cross the wire: senders drop such a body and the frame decoder refuses it.
func (p Profile) Finite() bool {
	return finite(p.MedianWatts) && finite(p.Requested) && finite(p.Granted) && finite(p.CoreCost)
}

// Finite reports whether the budget is finite.
func (b Budget) Finite() bool { return finite(b.Watts) }

// Finite reports whether the event's power and limit are finite.
func (e RackEvent) Finite() bool { return finite(e.Power) && finite(e.Limit) }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ProfileMessage builds a message carrying p.
func ProfileMessage(msgType, from, to string, p Profile) Message {
	return Message{Type: msgType, From: from, To: to, Body: BodyProfile, Profile: p}
}

// BudgetMessage builds a message carrying b.
func BudgetMessage(msgType, from, to string, b Budget) Message {
	return Message{Type: msgType, From: from, To: to, Body: BodyBudget, Budget: b}
}

// RackEventMessage builds a message carrying e.
func RackEventMessage(msgType, from, to string, e RackEvent) Message {
	return Message{Type: msgType, From: from, To: to, Body: BodyRackEvent, RackEvent: e}
}

// NewMessage builds a raw message with v encoded as its JSON payload.
func NewMessage(msgType, from, to string, v any) (Message, error) {
	var payload json.RawMessage
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return Message{}, fmt.Errorf("agent: encode payload: %w", err)
		}
		payload = b
	}
	return Message{Type: msgType, From: from, To: to, Payload: payload}, nil
}

// Decode unmarshals a raw message's JSON payload into T.
func Decode[T any](m Message) (T, error) {
	var v T
	if len(m.Payload) == 0 {
		return v, fmt.Errorf("agent: message %q has no payload", m.Type)
	}
	if err := json.Unmarshal(m.Payload, &v); err != nil {
		return v, fmt.Errorf("agent: decode %q payload: %w", m.Type, err)
	}
	return v, nil
}

// Handler consumes a delivered message.
type Handler func(Message)

// Transport delivers messages between named agents.
type Transport interface {
	// Send routes msg to the agent named msg.To. Unknown recipients are an
	// error.
	Send(msg Message) error
	// Register attaches h as the handler for messages addressed to name.
	// Registering a name twice replaces the handler.
	Register(name string, h Handler)
	// Close releases transport resources.
	Close() error
}

// Bus is an in-process Transport with synchronous delivery. It is safe for
// concurrent use. An optional Defer hook lets the simulator delay delivery
// (e.g. to model network latency) by scheduling the thunk instead of
// running it inline.
type Bus struct {
	mu       sync.Mutex
	handlers map[string]Handler
	// Defer, when non-nil, receives each delivery thunk instead of the
	// thunk running synchronously. Set it to the simulator's scheduling
	// function to model latency.
	Defer func(deliver func())
}

// NewBus creates an empty in-process bus.
func NewBus() *Bus {
	return &Bus{handlers: make(map[string]Handler)}
}

// Register implements Transport.
func (b *Bus) Register(name string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[name] = h
}

// Send implements Transport.
func (b *Bus) Send(msg Message) error {
	b.mu.Lock()
	h, ok := b.handlers[msg.To]
	deferFn := b.Defer
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("agent: unknown recipient %q", msg.To)
	}
	if deferFn != nil {
		deferFn(func() { h(msg) })
		return nil
	}
	h(msg)
	return nil
}

// SendBatch delivers msgs as a loop of Send would, in slice order, but
// resolves every recipient in one lock round. Handler registrations made by
// a handler mid-batch affect the next batch, not the remainder of this one.
func (b *Bus) SendBatch(msgs []Message) error {
	b.mu.Lock()
	deferFn := b.Defer
	type delivery struct {
		h   Handler
		msg Message
	}
	deliveries := make([]delivery, 0, len(msgs))
	var firstErr error
	for _, msg := range msgs {
		h, ok := b.handlers[msg.To]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("agent: unknown recipient %q", msg.To)
			}
			continue
		}
		deliveries = append(deliveries, delivery{h: h, msg: msg})
	}
	b.mu.Unlock()
	for _, d := range deliveries {
		h, msg := d.h, d.msg
		if deferFn != nil {
			deferFn(func() { h(msg) })
			continue
		}
		h(msg)
	}
	return firstErr
}

// Close implements Transport.
func (b *Bus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = make(map[string]Handler)
	return nil
}
