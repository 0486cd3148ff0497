package api

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Scope is a capability class a credential may hold.
type Scope string

const (
	// ScopeRead allows status queries.
	ScopeRead Scope = "read"
	// ScopeOperate allows workload mutations: deployments, profiles,
	// budgets, severity, overclock sessions.
	ScopeOperate Scope = "operate"
	// ScopeAdmin allows run-level mutations: checkpoints, advance,
	// shutdown.
	ScopeAdmin Scope = "admin"
	// ScopeChaos allows flipping chaos faults.
	ScopeChaos Scope = "chaos"
)

// Scopes lists every valid scope.
func Scopes() []Scope { return []Scope{ScopeRead, ScopeOperate, ScopeAdmin, ScopeChaos} }

// ParseScope validates a scope name.
func ParseScope(s string) (Scope, error) {
	for _, sc := range Scopes() {
		if Scope(s) == sc {
			return sc, nil
		}
	}
	return "", fmt.Errorf("api: unknown scope %q", s)
}

// Credential is one named bearer token with its scopes and optional expiry.
type Credential struct {
	Name   string
	scopes map[Scope]bool
	// Expiry zero means the credential never expires.
	Expiry time.Time
}

// Allows reports whether the credential holds the scope.
func (c *Credential) Allows(s Scope) bool { return c.scopes[s] }

// ExpiredAt reports whether the credential has expired as of now.
func (c *Credential) ExpiredAt(now time.Time) bool {
	return !c.Expiry.IsZero() && now.After(c.Expiry)
}

// Authenticator resolves bearer tokens to credentials.
type Authenticator struct {
	byToken map[string]*Credential
}

// Auth failure sentinels: the transport maps all of them to 401 but keeps
// the detail out of the response body (no oracle for token probing).
var (
	ErrNoToken      = &Error{Kind: KindInvalid, Msg: "missing bearer token"}
	ErrUnknownToken = &Error{Kind: KindInvalid, Msg: "unknown token"}
	ErrExpiredToken = &Error{Kind: KindInvalid, Msg: "expired token"}
)

// ParseCredentials parses the 12-factor credential spec:
//
//	name:token:scope[+scope...][:rfc3339-expiry] [; more]
//
// e.g. "ops:s3cret:read+operate;ci:tok:admin:2026-01-02T15:04:05Z".
// Names and tokens must be unique and non-empty.
func ParseCredentials(spec string) (*Authenticator, error) {
	a := &Authenticator{byToken: make(map[string]*Credential)}
	names := make(map[string]bool)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		// SplitN keeps the colons inside an RFC 3339 expiry intact.
		parts := strings.SplitN(entry, ":", 4)
		if len(parts) < 3 {
			return nil, fmt.Errorf("api: credential %q: want name:token:scopes[:expiry]", entry)
		}
		name, token := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if name == "" || token == "" {
			return nil, fmt.Errorf("api: credential %q: empty name or token", entry)
		}
		if names[name] {
			return nil, fmt.Errorf("api: duplicate credential name %q", name)
		}
		if _, dup := a.byToken[token]; dup {
			return nil, fmt.Errorf("api: duplicate token for credential %q", name)
		}
		cred := &Credential{Name: name, scopes: make(map[Scope]bool)}
		for _, s := range strings.Split(parts[2], "+") {
			sc, err := ParseScope(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("api: credential %q: %w", name, err)
			}
			cred.scopes[sc] = true
		}
		if len(cred.scopes) == 0 {
			return nil, fmt.Errorf("api: credential %q has no scopes", name)
		}
		if len(parts) == 4 {
			exp, err := time.Parse(time.RFC3339, strings.TrimSpace(parts[3]))
			if err != nil {
				return nil, fmt.Errorf("api: credential %q: bad expiry: %w", name, err)
			}
			cred.Expiry = exp
		}
		names[name] = true
		a.byToken[token] = cred
	}
	if len(a.byToken) == 0 {
		return nil, fmt.Errorf("api: no credentials in spec")
	}
	return a, nil
}

// Lookup resolves a bearer token as of now.
func (a *Authenticator) Lookup(token string, now time.Time) (*Credential, error) {
	if token == "" {
		return nil, ErrNoToken
	}
	cred, ok := a.byToken[token]
	if !ok {
		return nil, ErrUnknownToken
	}
	if cred.ExpiredAt(now) {
		return nil, ErrExpiredToken
	}
	return cred, nil
}

// --- Rate limiting ---------------------------------------------------------

// RateLimiter is a per-key token bucket: each key may spend up to Burst
// requests instantly and refills at Rate requests per second. The zero
// limiter (nil) allows everything.
type RateLimiter struct {
	mu    sync.Mutex
	rate  float64 // tokens per second
	burst float64
	// now is the clock, injectable for tests.
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter refilling rate tokens/second up to burst.
// Non-positive rate or burst panics: a limiter that can never admit is a
// configuration bug, and "no limiting" is spelled nil.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("api: rate limiter needs positive rate/burst, got %g/%g", rate, burst))
	}
	return &RateLimiter{rate: rate, burst: burst, now: time.Now, buckets: make(map[string]*bucket)}
}

// Allow spends one token from key's bucket, reporting whether one was
// available. A nil limiter always allows.
func (l *RateLimiter) Allow(key string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[key]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
