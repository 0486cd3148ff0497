// Package telemetry is the live scrape surface of the observability layer:
// a small HTTP server exposing the current metrics snapshot in Prometheus
// text format, a health probe, the standard pprof profiling endpoints, and
// a bounded tail of recent trace events. It exists for the networked
// cluster mode — the deterministic experiments export their telemetry as
// end-of-run artifacts instead and never start a server.
//
// The server never reaches into the simulation: the harness pushes
// snapshots and events in (PublishSnapshot / PublishEvents) at its own
// cadence, and scrapes read the latest published state under a mutex. That
// keeps the HTTP goroutines off the simulation's data entirely.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/store"
)

// DefaultTailCap bounds the event ring when NewServer is given a
// non-positive capacity.
const DefaultTailCap = 1024

// DefaultProvCap bounds the provenance ring: enough to hold the causal
// neighborhood of recent decisions without growing with run length.
const DefaultProvCap = 8192

// Server owns the published telemetry state and the HTTP listener.
type Server struct {
	mu     sync.Mutex
	snap   *metrics.Snapshot
	ring   *obs.Ring[obs.Event]
	prov   *obs.Ring[causal.Record]
	state  store.StateInfo
	mounts map[string]http.Handler

	srv *http.Server
	ln  net.Listener
}

// NewServer returns a server with an empty snapshot and an event ring of
// the given capacity (<=0 uses DefaultTailCap).
func NewServer(tailCap int) *Server {
	if tailCap <= 0 {
		tailCap = DefaultTailCap
	}
	return &Server{snap: &metrics.Snapshot{}, ring: obs.NewRing[obs.Event](tailCap), prov: obs.NewRing[causal.Record](DefaultProvCap)}
}

// PublishSnapshot replaces the snapshot served at /metrics.
func (s *Server) PublishSnapshot(snap *metrics.Snapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
}

// PublishState replaces the durable-state status served at /statez.
func (s *Server) PublishState(info store.StateInfo) {
	s.mu.Lock()
	s.state = info
	s.mu.Unlock()
}

// PublishEvents appends trace events to the tail ring.
func (s *Server) PublishEvents(events []obs.Event) {
	if len(events) == 0 {
		return
	}
	s.mu.Lock()
	s.ring.Push(events...)
	s.mu.Unlock()
}

// PublishProvenance appends causal decision records to the provenance ring
// backing /explain.
func (s *Server) PublishProvenance(recs []causal.Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	s.prov.Push(recs...)
	s.mu.Unlock()
}

// Mount attaches an extra handler subtree under pattern (e.g. "/api/v1/"),
// so sibling planes — the mutating control-plane API, say — share the
// telemetry listener. Mount before Start; later calls are ignored by
// already-built muxes.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mounts == nil {
		s.mounts = make(map[string]http.Handler)
	}
	s.mounts[pattern] = h
}

// Handler returns the server's HTTP mux:
//
//	/metrics           Prometheus text exposition of the latest snapshot
//	/healthz           liveness probe, always "ok"
//	/statez            durable-state status (checkpoint/restore) as JSON
//	/trace/tail?n=100  last n trace events as JSON lines (default 100);
//	                   ?component=a,b and ?span=ID filter server-side
//	/explain?span=ID   a decision's full causal ancestry as JSON
//	/debug/pprof/*     standard Go profiling endpoints
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statez", s.handleState)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace/tail", s.handleTail)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	for pattern, h := range s.mounts {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WriteProm(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	info := s.state
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(info)
}

// MaxTailRequest bounds /trace/tail?n=. Requests beyond it are rejected
// with 400 rather than silently clamped: a caller asking for a billion
// events has a bug, and handing back whatever the ring holds would hide it.
const MaxTailRequest = 65536

func (s *Server) handleTail(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		// Atoi rejects overflowing values outright, so n > MaxTailRequest
		// is the only way an absurd request could previously sneak through.
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 || v > MaxTailRequest {
			http.Error(w, fmt.Sprintf("telemetry: n must be an integer in [1,%d]", MaxTailRequest),
				http.StatusBadRequest)
			return
		}
		n = v
	}
	// Server-side filters: unknown component names are caller bugs and get
	// a 400 naming the valid set, exactly like the CLI's -trace-only flag.
	var want map[obs.Component]bool
	if q := r.URL.Query().Get("component"); q != "" {
		comps, err := obs.ParseComponents(q)
		if err != nil {
			http.Error(w, "telemetry: "+err.Error(), http.StatusBadRequest)
			return
		}
		want = make(map[obs.Component]bool, len(comps))
		for _, c := range comps {
			want[c] = true
		}
	}
	var span uint64
	if q := r.URL.Query().Get("span"); q != "" {
		id, err := causal.ParseSpan(q)
		if err != nil {
			http.Error(w, "telemetry: "+err.Error(), http.StatusBadRequest)
			return
		}
		span = uint64(id)
	}
	s.mu.Lock()
	events := s.ring.AppendSince(nil, 0) // a copy: it is filtered in place
	s.mu.Unlock()
	if want != nil || span != 0 {
		kept := events[:0]
		for _, ev := range events {
			if want != nil && !want[ev.Component] {
				continue
			}
			if span != 0 && ev.Span != span && ev.Parent != span {
				continue
			}
			kept = append(kept, ev)
		}
		events = kept
	}
	if len(events) > n {
		events = events[len(events)-n:]
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteEventsJSONL(w, events)
}

// Explanation is the /explain response: the requested decision, its causal
// ancestry (root-first, ending at the decision itself) and its direct
// consequences within the held provenance window.
type Explanation struct {
	Span     string          `json:"span"`
	Record   causal.Record   `json:"record"`
	Chain    []causal.Record `json:"chain"`
	Children []causal.Record `json:"children,omitempty"`
	// Held/Total report the provenance window the answer was computed
	// from; an ancestor older than the window is absent, not unknown.
	Held  int `json:"held"`
	Total int `json:"total"`
}

// RecentRecords is the /explain?recent=N response: the newest held
// provenance records, oldest first, for discovering spans to explain.
type RecentRecords struct {
	Records []causal.Record `json:"records"`
	Held    int             `json:"held"`
	Total   int             `json:"total"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("span")
	if q == "" {
		if rq := r.URL.Query().Get("recent"); rq != "" {
			s.handleRecent(w, rq)
			return
		}
		http.Error(w, "telemetry: usage /explain?span=<hex id> or /explain?recent=<n>", http.StatusBadRequest)
		return
	}
	id, err := causal.ParseSpan(q)
	if err != nil {
		http.Error(w, "telemetry: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	log := &causal.Log{Records: s.prov.AppendSince(nil, 0)}
	total := int(s.prov.Total())
	s.mu.Unlock()
	rec := log.Find(id)
	if rec == nil {
		http.Error(w, fmt.Sprintf("telemetry: span %s not in the held provenance window", id), http.StatusNotFound)
		return
	}
	chain := log.Chain(id)
	// Chain returns leaf-first; a "why" reads top-down from the root cause.
	slices.Reverse(chain)
	out := Explanation{
		Span:     id.String(),
		Record:   *rec,
		Chain:    chain,
		Children: log.Children(id),
		Held:     log.Len(),
		Total:    total,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// handleRecent serves the span-discovery half of /explain: the newest N
// held provenance records, bounded like /trace/tail.
func (s *Server) handleRecent(w http.ResponseWriter, rq string) {
	n, err := strconv.Atoi(rq)
	if err != nil || n <= 0 || n > MaxTailRequest {
		http.Error(w, fmt.Sprintf("telemetry: recent must be an integer in [1,%d]", MaxTailRequest),
			http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	held, total := s.prov.Len(), s.prov.Total()
	n = min(n, held)
	recs := s.prov.AppendSince(make([]causal.Record, 0, n), total-uint64(n)) // the newest n
	s.mu.Unlock()
	out := RecentRecords{Records: recs, Held: held, Total: int(total)}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// Start listens on addr (use "127.0.0.1:0" for a free port) and serves in a
// background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener. In-flight requests are abandoned; the server is
// a diagnostics plane, not a durability one.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Drain stops accepting connections and waits for in-flight requests to
// finish, up to ctx. With a control plane mounted, the response to the
// command that ended the run (e.g. shutdown) must reach the client before
// the process exits — Close would cut it off mid-write.
func (s *Server) Drain(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}
