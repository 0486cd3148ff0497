package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // America/New_York without relying on the host's zoneinfo
)

// BuildDayTemplate aggregates a multi-day series into a single representative
// day, through the same fitDays that BuildWeekTemplate runs. Samples are grouped by time-of-day slot across all days matching kind,
// then collapsed with reduce. The slot width equals the series step.
//
// This implements the paper's per-day aggregation: "the template's value at
// 9AM is the median of rack's power consumption at 9AM across all five
// weekdays" (§IV-B).
func BuildDayTemplate(s *Series, kind DayKind, reduce Reduce) *DayTemplate {
	var t [1]*DayTemplate
	fitDays(s, reduce, []DayKind{kind}, t[:])
	return t[0]
}

// ReduceMean returns the mean of the samples.
func ReduceMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// The ref* functions are the template code as it was before slot lookup
// read one ts.Clock and the week template was fitted in one pass, kept
// verbatim as the reference the current code must match bit for bit.

func refSlotOf(t *DayTemplate, ts time.Time) int {
	sinceMidnight := time.Duration(ts.Hour())*time.Hour +
		time.Duration(ts.Minute())*time.Minute +
		time.Duration(ts.Second())*time.Second
	i := int(sinceMidnight / t.Step)
	if i >= len(t.Slots) {
		i = len(t.Slots) - 1
	}
	return i
}

func refDayAt(t *DayTemplate, ts time.Time) float64 {
	if len(t.Slots) == 0 {
		return 0
	}
	return t.Slots[refSlotOf(t, ts)]
}

func refWeekAt(w *WeekTemplate, ts time.Time) float64 {
	if Weekends.Matches(ts.Weekday()) {
		return refDayAt(w.Weekend, ts)
	}
	return refDayAt(w.Weekday, ts)
}

func refBuildDayTemplate(s *Series, kind DayKind, reduce Reduce) *DayTemplate {
	slotsPerDay := int(24 * time.Hour / s.Step)
	if slotsPerDay < 1 {
		slotsPerDay = 1
	}
	slotOf := make([]int32, len(s.Values))
	counts := make([]int, slotsPerDay)
	for i := range s.Values {
		ts := s.TimeAt(i)
		if !kind.Matches(ts.Weekday()) {
			slotOf[i] = -1
			continue
		}
		sinceMidnight := time.Duration(ts.Hour())*time.Hour +
			time.Duration(ts.Minute())*time.Minute +
			time.Duration(ts.Second())*time.Second
		slot := int(sinceMidnight / s.Step)
		if slot >= slotsPerDay {
			slot = slotsPerDay - 1
		}
		slotOf[i] = int32(slot)
		counts[slot]++
	}
	offsets := make([]int, slotsPerDay)
	total := 0
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	backing := make([]float64, total)
	fill := make([]int, slotsPerDay)
	for i, v := range s.Values {
		slot := slotOf[i]
		if slot < 0 {
			continue
		}
		backing[offsets[slot]+fill[slot]] = v
		fill[slot]++
	}
	t := &DayTemplate{Step: s.Step, Kind: kind,
		Slots: make([]float64, slotsPerDay), counts: counts}
	for i := range counts {
		t.Slots[i] = reduce(backing[offsets[i] : offsets[i]+counts[i]])
	}
	return t
}

// refZones are UTC, a fixed offset that is not a whole hour, and a zone
// with both DST switches.
func refZones(t *testing.T) []*time.Location {
	t.Helper()
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	return []*time.Location{time.UTC, time.FixedZone("", 5*3600+45*60), ny}
}

// refInstants returns seeded instants over 2019–2026 with sub-minute
// seconds and nanoseconds, plus every minute across both 2023 New York DST
// switches and a Sunday-into-Monday wrap.
func refInstants() []time.Time {
	rng := rand.New(rand.NewSource(20260417))
	lo := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(2026, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
	var out []time.Time
	for i := 0; i < 10000; i++ {
		out = append(out, time.Unix(lo+rng.Int63n(hi-lo), rng.Int63n(1e9)))
	}
	for _, e := range []time.Time{
		time.Date(2023, 3, 12, 6, 0, 0, 0, time.UTC),
		time.Date(2023, 11, 5, 5, 0, 0, 0, time.UTC),
		time.Date(2023, 4, 17, 0, 0, 0, 0, time.UTC),
	} {
		for m := -180; m <= 180; m++ {
			out = append(out, e.Add(time.Duration(m)*time.Minute+59*time.Second+999999999))
		}
	}
	return out
}

// refSeries returns n seeded samples from start at step.
func refSeries(start time.Time, step time.Duration, n int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	s := NewWithCap(start, step, n)
	for i := 0; i < n; i++ {
		s.Append(rng.Float64() * 100)
	}
	return s
}

func sameDay(t *testing.T, what string, got, want *DayTemplate) {
	t.Helper()
	if got.Step != want.Step || got.Kind != want.Kind || len(got.Slots) != len(want.Slots) {
		t.Fatalf("%s: shape %v/%v/%d, reference %v/%v/%d",
			what, got.Step, got.Kind, len(got.Slots), want.Step, want.Kind, len(want.Slots))
	}
	for i := range want.Slots {
		if math.Float64bits(got.Slots[i]) != math.Float64bits(want.Slots[i]) {
			t.Fatalf("%s: slot %d = %v, reference %v", what, i, got.Slots[i], want.Slots[i])
		}
	}
	for i := -1; i <= len(want.Slots); i++ {
		if got.SampleCount(i) != want.SampleCount(i) {
			t.Fatalf("%s: SampleCount(%d) = %d, reference %d", what, i, got.SampleCount(i), want.SampleCount(i))
		}
	}
}

// TestTemplatesMatchReference fits templates from series in every zone,
// at steps that do and do not divide the day, over DST switches and
// sub-minute starts. BuildDayTemplate must equal the reference for every
// kind, BuildWeekTemplate must equal two reference BuildDayTemplate calls,
// and SlotOf and WeekTemplate.At must equal the reference lookups; each
// template is queried at every seventh instant, so every zone sees every
// instant several times over.
func TestTemplatesMatchReference(t *testing.T) {
	instants := refInstants()
	steps := []time.Duration{5 * time.Minute, 7 * time.Minute, time.Hour, 90 * time.Second, 13*time.Minute + 17*time.Second}
	reducers := map[string]Reduce{"median": ReduceMedian, "mean": ReduceMean, "max": ReduceMax}
	seed := int64(0)
	for _, loc := range refZones(t) {
		for _, start := range []time.Time{
			time.Date(2023, 2, 27, 0, 2, 30, 500, loc),  // crosses spring forward
			time.Date(2023, 10, 23, 23, 59, 59, 0, loc), // crosses fall back
			time.Date(2024, 12, 20, 12, 0, 0, 0, loc),   // crosses a year end
		} {
			for _, step := range steps {
				for name, reduce := range reducers {
					seed++
					s := refSeries(start, step, int(21*24*time.Hour/step), seed)
					what := loc.String() + " " + start.String() + " " + step.String() + " " + name
					for _, kind := range []DayKind{Weekdays, Weekends, AllDays} {
						sameDay(t, what+" "+kind.String(), BuildDayTemplate(s, kind, reduce), refBuildDayTemplate(s, kind, reduce))
					}
					w := BuildWeekTemplate(s, reduce)
					sameDay(t, what+" week weekday", w.Weekday, refBuildDayTemplate(s, Weekdays, reduce))
					sameDay(t, what+" week weekend", w.Weekend, refBuildDayTemplate(s, Weekends, reduce))
					for i := int(seed % 7); i < len(instants); i += 7 {
						ts := instants[i].In(loc)
						if got, want := w.Weekday.SlotOf(ts), refSlotOf(w.Weekday, ts); got != want {
							t.Fatalf("%s: SlotOf(%v) = %d, reference %d", what, ts, got, want)
						}
						if got, want := w.At(ts), refWeekAt(w, ts); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: At(%v) = %v, reference %v", what, ts, got, want)
						}
					}
				}
			}
		}
	}
	// A template with fewer slots than its step implies clamps to the
	// last slot, as the reference does.
	short := &DayTemplate{Step: time.Hour, Slots: []float64{1, 2, 3}}
	for _, ts := range instants {
		if got, want := short.SlotOf(ts), refSlotOf(short, ts); got != want {
			t.Fatalf("short template: SlotOf(%v) = %d, reference %d", ts, got, want)
		}
	}
}
