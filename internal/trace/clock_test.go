package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // America/New_York without relying on the host's zoneinfo
)

// refUtilAt is ServiceProfile.UtilAt as it was before the Clock split,
// kept verbatim as the reference UtilAtClock must match bit for bit.
func refUtilAt(p ServiceProfile, ts time.Time, rng *rand.Rand) float64 {
	hour := float64(ts.Hour()) + float64(ts.Minute())/60 - p.PhaseShiftHours
	for hour < 0 {
		hour += 24
	}
	for hour >= 24 {
		hour -= 24
	}
	var u float64
	switch p.Pattern {
	case PatternDiurnal:
		mid := (p.BaseUtil + p.PeakUtil) / 2
		amp := (p.PeakUtil - p.BaseUtil) / 2
		u = mid - amp*math.Cos(2*math.Pi*hour/24)
	case PatternBroadPeak:
		u = p.BaseUtil
		if hour >= float64(p.PeakStartHour) && hour < float64(p.PeakEndHour) {
			u = p.PeakUtil
		}
	case PatternSpiky:
		u = p.BaseUtil
		min := ts.Minute()
		spike := p.SpikeMinutes
		if spike <= 0 {
			spike = 5
		}
		if min < spike || (min >= 30 && min < 30+spike) {
			u = p.PeakUtil
		}
	case PatternConstant:
		u = p.PeakUtil
	case PatternNightly:
		u = p.PeakUtil
		if hour >= 7 && hour < 22 {
			u = p.BaseUtil
		}
	default:
		u = p.BaseUtil
	}
	if ts.Weekday() == time.Saturday || ts.Weekday() == time.Sunday {
		if p.WeekendFactor > 0 {
			u *= p.WeekendFactor
		}
	}
	if p.NoiseSD > 0 && rng != nil {
		u *= 1 + rng.NormFloat64()*p.NoiseSD
	}
	if u < 0.01 {
		u = 0.01
	}
	if u > 1 {
		u = 1
	}
	return u
}

// refServerUtilAt is ServerSpec.UtilAt as it was before the Clock split.
func refServerUtilAt(s ServerSpec, ts time.Time, rng *rand.Rand) float64 {
	if s.HW.Cores == 0 {
		return 0
	}
	busy := 0.0
	for _, vm := range s.VMs {
		busy += float64(vm.Cores) * refUtilAt(vm.Service, ts, rng)
	}
	u := busy / float64(s.HW.Cores)
	if u > 1 {
		u = 1
	}
	return u
}

// clockZones are the locations the property tests decompose instants in:
// UTC, a fixed offset that is not a whole hour, and a zone with both DST
// switches.
func clockZones(t *testing.T) []*time.Location {
	t.Helper()
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	return []*time.Location{time.UTC, time.FixedZone("", 5*3600+45*60), ny}
}

// clockInstants returns seeded instants over 2019–2026 with sub-minute
// seconds and nanoseconds, plus every minute (at odd seconds) across both
// 2023 New York DST switches and across week wraps.
func clockInstants() []time.Time {
	rng := rand.New(rand.NewSource(20260417))
	lo := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(2026, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
	var out []time.Time
	for i := 0; i < 10000; i++ {
		out = append(out, time.Unix(lo+rng.Int63n(hi-lo), rng.Int63n(1e9)))
	}
	edges := []time.Time{
		time.Date(2023, 3, 12, 6, 0, 0, 0, time.UTC), // spring forward, 02:00 EST
		time.Date(2023, 11, 5, 5, 0, 0, 0, time.UTC), // fall back, 02:00 EDT
		// Week wraps: Sunday into Monday in each zone, Friday into Saturday.
		time.Date(2023, 4, 17, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 4, 16, 18, 15, 0, 0, time.UTC),
		time.Date(2023, 4, 17, 4, 0, 0, 0, time.UTC),
		time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC),
	}
	for _, e := range edges {
		for m := -180; m <= 180; m++ {
			out = append(out, e.Add(time.Duration(m)*time.Minute+59*time.Second+999999999))
		}
	}
	return out
}

// TestClockOfMatchesTime checks the decomposition itself against the
// time package in every zone.
func TestClockOfMatchesTime(t *testing.T) {
	weekdays := map[time.Weekday]bool{}
	for _, loc := range clockZones(t) {
		for _, ts := range clockInstants() {
			ts = ts.In(loc)
			c := ClockOf(ts)
			wd := ts.Weekday()
			weekdays[wd] = true
			if c.Minute != ts.Hour()*60+ts.Minute() || c.Weekend != (wd == time.Saturday || wd == time.Sunday) {
				t.Fatalf("ClockOf(%v) = %+v", ts, c)
			}
		}
	}
	if len(weekdays) != 7 {
		t.Fatalf("instants cover %d weekdays, want 7", len(weekdays))
	}
}

// TestUtilAtClockMatchesReference compares UtilAtClock and both UtilAt
// wrappers with the pre-split code over every catalog profile at random
// phase shifts in [-30, 30] h: equal float bits without noise, and with
// noise from two same-seed rngs that must still agree afterwards.
func TestUtilAtClockMatchesReference(t *testing.T) {
	catalog := Catalog()
	shiftRNG := rand.New(rand.NewSource(7))
	same := func(what string, ts time.Time, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s at %v: %v, reference %v", what, ts, got, want)
		}
	}
	for zi, loc := range clockZones(t) {
		rngNew := rand.New(rand.NewSource(int64(zi)))
		rngRef := rand.New(rand.NewSource(int64(zi)))
		for n, ts := range clockInstants() {
			ts = ts.In(loc)
			c := ClockOf(ts)
			p := catalog[n%len(catalog)]
			switch n % 50 {
			case 0:
				p.PhaseShiftHours = -30
			case 1:
				p.PhaseShiftHours = 30
			default:
				p.PhaseShiftHours = shiftRNG.Float64()*60 - 30
			}
			same(p.Name+" UtilAtClock", ts, p.UtilAtClock(c, nil), refUtilAt(p, ts, nil))
			same(p.Name+" UtilAt", ts, p.UtilAt(ts, nil), refUtilAt(p, ts, nil))
			same(p.Name+" noisy UtilAtClock", ts, p.UtilAtClock(c, rngNew), refUtilAt(p, ts, rngRef))

			spec := ServerSpec{HW: DefaultRackGenConfig("", ts, time.Hour).HW}
			for k := 0; k < 4; k++ {
				q := catalog[(n+k)%len(catalog)]
				q.PhaseShiftHours = p.PhaseShiftHours / float64(k+1)
				spec.VMs = append(spec.VMs, VMSpec{Service: q, Cores: 2 + 3*k})
			}
			same("server UtilAt", ts, spec.UtilAtClock(ClockOf(ts), rngNew), refServerUtilAt(spec, ts, rngRef))
		}
		if a, b := rngNew.Int63(), rngRef.Int63(); a != b {
			t.Fatalf("%v: rng streams diverged: %d vs %d", loc, a, b)
		}
	}
}

// TestUserFacingPatterns pins which patterns ask to overclock.
func TestUserFacingPatterns(t *testing.T) {
	want := map[Pattern]bool{
		PatternDiurnal: true, PatternBroadPeak: true, PatternSpiky: true,
		PatternConstant: false, PatternNightly: false,
	}
	for pat, uf := range want {
		p := ServiceProfile{Pattern: pat}
		if got := p.UserFacing(); got != uf {
			t.Errorf("%v.UserFacing() = %v, want %v", pat, got, uf)
		}
	}
}

// TestClockHotPathNoAllocs holds the per-tick decomposition and the
// profile evaluation, noise draw included, at zero allocations.
func TestClockHotPathNoAllocs(t *testing.T) {
	p := ServiceB()
	rng := rand.New(rand.NewSource(1))
	ts := genStart.Add(10*time.Hour + 2*time.Minute)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += float64(ClockOf(ts).Minute) }); n != 0 {
		t.Fatalf("ClockOf allocates %.1f objects per call", n)
	}
	c := ClockOf(ts)
	if n := testing.AllocsPerRun(100, func() { sink += p.UtilAtClock(c, rng) }); n != 0 {
		t.Fatalf("UtilAtClock allocates %.1f objects per call", n)
	}
	_ = sink
}
