package api

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func TestParseCredentials(t *testing.T) {
	spec := "ops:tok-ops:read+operate;ci:tok-ci:admin:2026-06-01T00:00:00Z; chaos-bot:tok-chaos:chaos"
	a, err := ParseCredentials(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.byToken) != 3 {
		t.Fatalf("credentials = %d, want 3", len(a.byToken))
	}

	ops, err := a.Lookup("tok-ops", t0)
	if err != nil {
		t.Fatal(err)
	}
	if !ops.Allows(ScopeRead) || !ops.Allows(ScopeOperate) || ops.Allows(ScopeAdmin) || ops.Allows(ScopeChaos) {
		t.Fatalf("ops scopes = %v", ops.scopes)
	}
	if !ops.Expiry.IsZero() {
		t.Fatalf("ops should never expire, got %v", ops.Expiry)
	}

	ci, err := a.Lookup("tok-ci", t0)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC); !ci.Expiry.Equal(want) {
		t.Fatalf("ci expiry = %v, want %v", ci.Expiry, want)
	}
}

func TestParseCredentialsRejects(t *testing.T) {
	cases := map[string]string{
		"empty spec":      "",
		"only separators": " ; ; ",
		"missing fields":  "ops:tok",
		"too many fields": "ops:tok:read:2026-06-01T00:00:00Z:extra",
		"empty name":      ":tok:read",
		"empty token":     "ops::read",
		"unknown scope":   "ops:tok:root",
		"no scopes":       "ops:tok:",
		"bad expiry":      "ops:tok:read:tomorrow",
		"duplicate name":  "ops:tok1:read;ops:tok2:read",
		"duplicate token": "a:tok:read;b:tok:read",
	}
	for name, spec := range cases {
		if _, err := ParseCredentials(spec); err == nil {
			t.Errorf("%s (%q): parsed without error", name, spec)
		}
	}
}

func TestLookupFailures(t *testing.T) {
	a, err := ParseCredentials("ci:tok-ci:admin:2026-06-01T00:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lookup("", t0); !errors.Is(err, ErrNoToken) {
		t.Errorf("empty token err = %v", err)
	}
	if _, err := a.Lookup("nope", t0); !errors.Is(err, ErrUnknownToken) {
		t.Errorf("unknown token err = %v", err)
	}
	after := time.Date(2026, 6, 1, 0, 0, 1, 0, time.UTC)
	if _, err := a.Lookup("tok-ci", after); !errors.Is(err, ErrExpiredToken) {
		t.Errorf("expired token err = %v", err)
	}
	// At the expiry instant itself the credential is still good (After, not
	// !Before).
	if _, err := a.Lookup("tok-ci", time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Errorf("at-expiry lookup err = %v", err)
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(1, 3) // 1 req/s, burst 3
	now := t0
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !l.Allow("ops") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow("ops") {
		t.Fatal("4th instant request allowed past burst")
	}
	// Another key has its own bucket.
	if !l.Allow("ci") {
		t.Fatal("independent key denied")
	}

	now = now.Add(2 * time.Second) // refills 2 tokens
	if !l.Allow("ops") || !l.Allow("ops") {
		t.Fatal("refilled tokens denied")
	}
	if l.Allow("ops") {
		t.Fatal("third request allowed after 2-token refill")
	}

	// Refill saturates at burst.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow("ops") {
			t.Fatalf("post-saturation request %d denied", i)
		}
	}
	if l.Allow("ops") {
		t.Fatal("saturated bucket exceeded burst")
	}
}

func TestRateLimiterNilAllows(t *testing.T) {
	var l *RateLimiter
	for i := 0; i < 1000; i++ {
		if !l.Allow("anyone") {
			t.Fatal("nil limiter denied")
		}
	}
}

func TestNewRateLimiterPanicsOnNonPositive(t *testing.T) {
	for _, pair := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRateLimiter(%g, %g) did not panic", pair[0], pair[1])
				}
			}()
			NewRateLimiter(pair[0], pair[1])
		}()
	}
}

func TestConfigFromEnv(t *testing.T) {
	env := map[string]string{
		EnvTokens:  "ops:tok:read",
		EnvRate:    "2.5",
		EnvBurst:   "7",
		EnvMaxBody: "1024",
	}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	c := DefaultConfig()
	if err := c.FromEnv(lookup); err != nil {
		t.Fatal(err)
	}
	if c.Tokens != "ops:tok:read" || c.Rate != 2.5 || c.Burst != 7 || c.MaxBody != 1024 {
		t.Fatalf("config = %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("config with tokens not enabled")
	}

	env[EnvRate] = "fast"
	if err := c.FromEnv(lookup); err == nil {
		t.Fatal("bad rate accepted")
	}
	if DefaultConfig().Enabled() {
		t.Fatal("default config (no tokens) reports enabled")
	}
}
