package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/experiment"
	"smartoclock/internal/telemetry"
)

// benchToken is the one all-scope credential the scripted operator uses.
const benchToken = "bench-token"

// controlSession is one held live run served the way soccluster -serve
// serves it — telemetry listener with the authenticated API mounted — plus
// the single closed-loop client that drives it: one goroutine, one
// keep-alive connection.
type controlSession struct {
	base   string
	client *api.Client
	http   *http.Client
	out    repOut
}

// timed runs one client call, files its latency under lat and counts it
// as an attempted operation; an error (any non-2xx reply) fails it.
func (s *controlSession) timed(lat *[]time.Duration, call func() error) error {
	start := time.Now()
	err := call()
	*lat = append(*lat, time.Since(start))
	s.out.Attempted++
	if err != nil {
		s.out.Failed++
		s.out.Rejected++
	}
	return err
}

func (s *controlSession) scrape() error {
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("scrape: status %d, %d bytes", resp.StatusCode, n)
	}
	s.out.ScrapeBytes = n
	return nil
}

// runControlSession plays the scripted operator against a held live run:
// every round reads Status and sets one server's budget (round-robin),
// every 10th starts and stops an overclock on a registered deployment,
// every 25th scrapes /metrics, every 100th forces a checkpoint, and each
// round ends by advancing the clock ticksPerAdvance ticks. Hold mode makes
// the run a pure function of the script, so the final checkpoint must be
// byte-identical on every repetition.
func runControlSession(seed int64, sz sizes, rounds, ticksPerAdvance int, scratch string) (repOut, error) {
	dir, err := os.MkdirTemp(scratch, "control-")
	if err != nil {
		return repOut{}, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "state.ckpt")

	ctrl := experiment.NewLiveController()
	cfg := liveConfig(seed, sz)
	cfg.Control = ctrl
	cfg.Hold = true
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 5 * time.Minute
	wantTicks := rounds * ticksPerAdvance
	// Headroom past the script so the run ends on Shutdown, not on time.
	cfg.Duration = time.Duration(wantTicks+100) * cfg.Tick

	handler, err := api.Config{Tokens: "bench:" + benchToken + ":read+operate+admin+chaos", Rate: 0}.Build(ctrl)
	if err != nil {
		return repOut{}, err
	}
	srv := telemetry.NewServer(0)
	srv.Mount("/api/", handler)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return repOut{}, err
	}
	defer srv.Close()

	var res *experiment.LiveResult
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = experiment.RunLive(cfg, srv)
	}()

	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	s := &controlSession{
		base:   "http://" + addr,
		client: &api.Client{Base: "http://" + addr, Token: benchToken, HTTP: hc},
		http:   hc,
		out:    repOut{Racks: 1},
	}
	scriptErr := s.play(seed, rounds, ticksPerAdvance, ckpt)

	// Always end the run, even after a script error, so no goroutine or
	// listener outlives the repetition.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.client.Shutdown(ctx); err != nil && scriptErr == nil {
		scriptErr = fmt.Errorf("shutdown: %w", err)
	}
	<-done
	_ = srv.Drain(ctx) // the shutdown ack is already read; nothing else is in flight

	if runErr != nil {
		return s.out, runErr
	}
	if scriptErr != nil {
		return s.out, scriptErr
	}
	s.out.Ticks = res.Ticks
	s.out.SimMinutes = float64(res.Ticks) * cfg.Tick.Minutes()
	s.out.Attempted += wantTicks
	s.out.Failed += res.Violations
	if res.Ticks != wantTicks {
		s.out.Failed++
	}
	for _, d := range s.out.Advance {
		s.out.TickWall += d
	}
	return s.out, nil
}

// play runs the script. Replies that are not 2xx are counted by timed and
// do not stop the script; only a transport-level surprise that leaves the
// session unusable (no servers in Status) does.
func (s *controlSession) play(seed int64, rounds, ticksPerAdvance int, ckpt string) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	out := &s.out

	var st *api.ClusterStatus
	err := s.timed(&out.Cmd, func() (err error) { st, err = s.client.Status(ctx); return })
	if err != nil {
		return fmt.Errorf("first status: %w", err)
	}
	if len(st.Servers) == 0 {
		return fmt.Errorf("status lists no servers")
	}
	share := st.Rack.LimitWatts / float64(len(st.Servers))
	host := st.Servers[0].Name
	const dep = "bench-dep"
	_ = s.timed(&out.Cmd, func() error {
		_, err := s.client.RegisterDeployment(ctx, api.DeploymentSpec{Name: dep, Server: host, Cores: 2, Util: 0.6})
		return err
	})

	for r := 0; r < rounds; r++ {
		_ = s.timed(&out.Cmd, func() error { _, err := s.client.Status(ctx); return err })
		spec := api.BudgetSpec{Server: st.Servers[r%len(st.Servers)].Name, Watts: share * (0.9 + 0.2*rng.Float64())}
		_ = s.timed(&out.Cmd, func() error { return s.client.SetBudget(ctx, spec) })
		if r%10 == 9 {
			var oc *api.OCStatus
			err := s.timed(&out.Cmd, func() (err error) {
				oc, err = s.client.StartOverclock(ctx, api.OCSpec{Server: host, VM: dep})
				return
			})
			// A denial is a 200 with granted=false; only a granted session
			// exists to be stopped.
			if err == nil && oc.Granted {
				_ = s.timed(&out.Cmd, func() error {
					return s.client.StopOverclock(ctx, api.StopSpec{Server: host, VM: dep})
				})
			}
		}
		if r%25 == 24 {
			_ = s.timed(&out.Scrape, s.scrape)
		}
		if r%100 == 99 {
			_ = s.timed(&out.Cmd, func() error { _, err := s.client.ForceCheckpoint(ctx); return err })
		}
		_ = s.timed(&out.Advance, func() error {
			_, err := s.client.Advance(ctx, api.AdvanceSpec{Ticks: ticksPerAdvance})
			return err
		})
	}

	// The final checkpoint is the run's simulated output.
	_ = s.timed(&out.Cmd, func() error { _, err := s.client.ForceCheckpoint(ctx); return err })
	data, err := os.ReadFile(ckpt)
	if err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	out.Checkpoint = data
	out.Digest = digest(string(data))
	return nil
}
