package power

import (
	"testing"
	"time"
)

// fakeServer implements Server with a direct mapping from cap level to
// power: each cap level removes stepWatts from the draw.
type fakeServer struct {
	name      string
	baseWatts float64
	stepWatts float64
	priority  int
	capLevel  int
	maxCap    int
}

func (f *fakeServer) Name() string     { return f.name }
func (f *fakeServer) CapPriority() int { return f.priority }
func (f *fakeServer) CapLevel() int    { return f.capLevel }
func (f *fakeServer) MaxCapLevel() int { return f.maxCap }

func (f *fakeServer) Power() float64 {
	p := f.baseWatts - float64(f.capLevel)*f.stepWatts
	if p < 0 {
		p = 0
	}
	return p
}

func (f *fakeServer) ForceCap(level int) {
	if level < 0 {
		level = 0
	}
	if level > f.maxCap {
		level = f.maxCap
	}
	f.capLevel = level
}

func newFake(name string, watts float64, prio int) *fakeServer {
	return &fakeServer{name: name, baseWatts: watts, stepWatts: 20, priority: prio, maxCap: 18}
}

var tick0 = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

func TestDefaultRackConfigValid(t *testing.T) {
	if err := DefaultRackConfig("r", 10000).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRackConfigValidation(t *testing.T) {
	bad := []RackConfig{
		{Name: "r", LimitWatts: 0, WarnFraction: 0.95, TargetFraction: 0.9, RestoreFraction: 0.8},
		{Name: "r", LimitWatts: 100, WarnFraction: 1.5, TargetFraction: 0.9, RestoreFraction: 0.8},
		{Name: "r", LimitWatts: 100, WarnFraction: 0.95, TargetFraction: 0.96, RestoreFraction: 0.8},
		{Name: "r", LimitWatts: 100, WarnFraction: 0.95, TargetFraction: 0.9, RestoreFraction: 0.96},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestRackPowerSumsServers(t *testing.T) {
	a, b := newFake("a", 300, 0), newFake("b", 400, 0)
	r := NewRack(DefaultRackConfig("r", 1000), a, b)
	if got := r.Power(); got != 700 {
		t.Fatalf("Power = %v", got)
	}
}

func TestTickBelowWarnDoesNothing(t *testing.T) {
	a := newFake("a", 500, 0)
	r := NewRack(DefaultRackConfig("r", 1000), a)
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	r.Tick(tick0)
	if len(events) != 0 || r.CapEvents() != 0 || r.Warnings() != 0 {
		t.Fatalf("events = %v", events)
	}
}

func TestTickWarning(t *testing.T) {
	a := newFake("a", 960, 0) // 96% of limit
	r := NewRack(DefaultRackConfig("r", 1000), a)
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	r.Tick(tick0)
	if len(events) != 1 || events[0].Kind != EventWarning {
		t.Fatalf("events = %v", events)
	}
	if r.Warnings() != 1 || r.CapEvents() != 0 {
		t.Fatalf("counters: warn=%d cap=%d", r.Warnings(), r.CapEvents())
	}
	if a.capLevel != 0 {
		t.Fatal("warning must not throttle")
	}
}

func TestTickCapThrottlesToTarget(t *testing.T) {
	a := newFake("a", 600, 0)
	b := newFake("b", 500, 1)
	r := NewRack(DefaultRackConfig("r", 1000), a, b)
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	r.Tick(tick0)
	if r.CapEvents() != 1 {
		t.Fatalf("cap events = %d", r.CapEvents())
	}
	// A warning precedes the cap (the shed-first contract); the final
	// event is the cap itself.
	if len(events) < 2 || events[len(events)-1].Kind != EventCap || events[0].Kind != EventWarning {
		t.Fatalf("events = %v", events)
	}
	if got := r.Power(); got > 0.78*1000 {
		t.Fatalf("power after capping = %v, want <= 780", got)
	}
	// Lowest priority (a, priority 0) must be throttled at least as deep.
	if a.capLevel < b.capLevel {
		t.Fatalf("priorities inverted: a=%d b=%d", a.capLevel, b.capLevel)
	}
}

func TestCappingPrefersLowPriority(t *testing.T) {
	low := newFake("low", 520, 0)
	high := newFake("high", 520, 10)
	r := NewRack(DefaultRackConfig("r", 1000), high, low) // registration order shuffled
	r.Tick(tick0)
	if low.capLevel == 0 {
		t.Fatal("low-priority server not throttled")
	}
	if high.capLevel > low.capLevel {
		t.Fatalf("high-priority server throttled deeper: high=%d low=%d", high.capLevel, low.capLevel)
	}
}

func TestCappingStopsAtFloor(t *testing.T) {
	a := newFake("a", 5000, 0) // far above limit even fully throttled
	a.maxCap = 3
	r := NewRack(DefaultRackConfig("r", 1000), a)
	r.Tick(tick0) // must terminate
	if a.capLevel != 3 {
		t.Fatalf("capLevel = %d, want max 3", a.capLevel)
	}
}

func TestRestoreRelaxesCaps(t *testing.T) {
	a := newFake("a", 1100, 0)
	r := NewRack(DefaultRackConfig("r", 1000), a)
	r.Tick(tick0)
	if a.capLevel == 0 {
		t.Fatal("setup: server must be capped")
	}
	// Load drops far below restore threshold.
	a.baseWatts = 300
	lvl := a.capLevel
	var released bool
	r.Subscribe(func(e Event) {
		if e.Kind == EventRelease {
			released = true
		}
	})
	now := tick0
	for i := 0; i < lvl; i++ {
		now = now.Add(time.Second)
		r.Tick(now)
	}
	if a.capLevel != 0 {
		t.Fatalf("capLevel = %d after %d restore ticks", a.capLevel, lvl)
	}
	if !released {
		t.Fatal("no release event")
	}
	if r.IsCapped() {
		t.Fatal("IsCapped after full restore")
	}
}

func TestAddServer(t *testing.T) {
	r := NewRack(DefaultRackConfig("r", 1000))
	r.AddServer(newFake("a", 100, 0))
	if len(r.Servers()) != 1 || r.Power() != 100 {
		t.Fatal("AddServer failed")
	}
}

func TestNewRackPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRack(RackConfig{Name: "r"})
}

func TestEventKindString(t *testing.T) {
	if EventWarning.String() != "warning" || EventCap.String() != "cap" || EventRelease.String() != "release" {
		t.Fatal("event kind names wrong")
	}
	if EventKind(42).String() == "" {
		t.Fatal("unknown kind must still format")
	}
}
