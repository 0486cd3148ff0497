package trace

import (
	"testing"
	"time"
)

func TestArrivalStreamDeterministicAndRandomAccess(t *testing.T) {
	s := NewArrivalStream(42, 5*time.Minute, 40)
	all := allArrivals(s)
	// Arrival i is a pure function of (seed, i): random access agrees with
	// stream order, and a second stream with the same seed is identical.
	s2 := NewArrivalStream(42, 5*time.Minute, 40)
	for i, a := range all {
		if got := s.Arrival(i); got != a {
			t.Fatalf("arrival %d differs on re-read", i)
		}
		if got := s2.Arrival(i); got != a {
			t.Fatalf("arrival %d differs across same-seed streams", i)
		}
	}
	// A different seed must actually change the stream.
	s3 := NewArrivalStream(43, 5*time.Minute, 40)
	same := 0
	for i := range all {
		if s3.Arrival(i).Severity == all[i].Severity {
			same++
		}
	}
	if same == len(all) {
		t.Fatal("seed change left every severity identical")
	}
}

func TestArrivalStreamFieldRanges(t *testing.T) {
	s := NewArrivalStream(7, 3*time.Minute, 200)
	var last time.Duration = -1
	var haveAbsent, haveStale, haveFresh bool
	sevSeen := map[int]bool{}
	for _, a := range allArrivals(s) {
		if a.At <= last {
			t.Fatalf("arrival %d at %v not after %v", a.Index, a.At, last)
		}
		last = a.At
		if a.Severity < 0 || a.Severity > 3 {
			t.Fatalf("arrival %d severity %d out of range", a.Index, a.Severity)
		}
		sevSeen[a.Severity] = true
		switch a.HW.Cores {
		case 16, 32, 64:
		default:
			t.Fatalf("arrival %d has %d cores", a.Index, a.HW.Cores)
		}
		if a.HW.NameplateWatts() <= 0 {
			t.Fatalf("arrival %d nameplate %v", a.Index, a.HW.NameplateWatts())
		}
		switch {
		case a.HistoryDays == 0:
			haveAbsent = true
			if a.TemplateAgeDays != 0 {
				t.Fatalf("arrival %d has template age without history", a.Index)
			}
		case a.HistoryDays < 7 || a.HistoryDays > 14:
			t.Fatalf("arrival %d history %d days out of range", a.Index, a.HistoryDays)
		case a.TemplateAgeDays >= 30:
			haveStale = true
		default:
			haveFresh = true
		}
	}
	// A 200-arrival stream must exercise every admission path: all four
	// severity classes, fresh templates, stale templates, absent history.
	for sev := 0; sev < 4; sev++ {
		if !sevSeen[sev] {
			t.Fatalf("severity class %d never generated", sev)
		}
	}
	if !haveAbsent || !haveStale || !haveFresh {
		t.Fatalf("template freshness paths missing: absent=%v stale=%v fresh=%v",
			haveAbsent, haveStale, haveFresh)
	}
}

func TestArrivalStreamPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NewArrivalStream(1, 0, 5) },
		func() { NewArrivalStream(1, time.Minute, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad arrival stream accepted")
				}
			}()
			f()
		}()
	}
}

func TestDemandWaveAndBenignUtilExports(t *testing.T) {
	// The exported wrappers must agree with the zoo's internal generators.
	for srv := 0; srv < 4; srv++ {
		for min := 0; min < 60; min += 5 {
			since := time.Duration(min) * time.Minute
			if got, want := DemandWave(0, srv, 4, since, 20*time.Minute, 0.45),
				phasedDemand(0, srv, 4, since, 20*time.Minute, 0.45); got != want {
				t.Fatalf("DemandWave(srv=%d, %v) = %v, internal %v", srv, since, got, want)
			}
			for _, hot := range []bool{false, true} {
				got := BenignUtil(9, 0, srv, since, hot)
				if want := benignUtil(9, 0, srv, since, hot); got != want {
					t.Fatalf("BenignUtil mismatch at srv=%d %v", srv, since)
				}
				if got < 0 || got > 1 {
					t.Fatalf("BenignUtil = %v out of [0,1]", got)
				}
			}
		}
	}
}

// allArrivals returns every arrival of s in stream order.
func allArrivals(s *ArrivalStream) []Arrival {
	out := make([]Arrival, s.N)
	for i := range out {
		out[i] = s.Arrival(i)
	}
	return out
}
