package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// t0 is a Monday at midnight UTC, used across the tests.
var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func mkSeries(step time.Duration, vals ...float64) *Series {
	return FromValues(t0, step, vals)
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive step")
		}
	}()
	New(t0, 0)
}

func TestLenEndTimeAt(t *testing.T) {
	s := mkSeries(time.Minute, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.End(); !got.Equal(t0.Add(3 * time.Minute)) {
		t.Fatalf("End = %v", got)
	}
	if got := s.TimeAt(2); !got.Equal(t0.Add(2 * time.Minute)) {
		t.Fatalf("TimeAt(2) = %v", got)
	}
}

func TestIndexOf(t *testing.T) {
	s := mkSeries(5*time.Minute, 1, 2, 3)
	if i, ok := s.IndexOf(t0); !ok || i != 0 {
		t.Fatalf("IndexOf(start) = %d, %v", i, ok)
	}
	if i, ok := s.IndexOf(t0.Add(7 * time.Minute)); !ok || i != 1 {
		t.Fatalf("IndexOf(+7m) = %d, %v", i, ok)
	}
	if _, ok := s.IndexOf(t0.Add(-time.Minute)); ok {
		t.Fatal("IndexOf before start must report false")
	}
	if i, ok := s.IndexOf(t0.Add(time.Hour)); ok || i != 2 {
		t.Fatalf("IndexOf after end = %d, %v", i, ok)
	}
}

func TestAtClamps(t *testing.T) {
	s := mkSeries(time.Minute, 10, 20, 30)
	if got := s.At(t0.Add(-time.Hour)); got != 10 {
		t.Fatalf("At before = %v", got)
	}
	if got := s.At(t0.Add(90 * time.Second)); got != 20 {
		t.Fatalf("At mid = %v", got)
	}
	if got := s.At(t0.Add(time.Hour)); got != 30 {
		t.Fatalf("At after = %v", got)
	}
	var empty Series
	if empty.At(t0) != 0 {
		t.Fatal("empty At must be 0")
	}
}

func TestAppendClone(t *testing.T) {
	s := New(t0, time.Second)
	s.Append(1)
	s.Append(2)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone must deep-copy values")
	}
}

func TestSlice(t *testing.T) {
	s := mkSeries(time.Minute, 0, 1, 2, 3, 4, 5)
	sub := s.Slice(t0.Add(2*time.Minute), t0.Add(4*time.Minute))
	if sub.Len() != 2 || sub.Values[0] != 2 || sub.Values[1] != 3 {
		t.Fatalf("Slice = %+v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(2 * time.Minute)) {
		t.Fatalf("Slice start = %v", sub.Start)
	}
	// Clamping.
	all := s.Slice(t0.Add(-time.Hour), t0.Add(time.Hour))
	if all.Len() != 6 {
		t.Fatalf("clamped Slice len = %d", all.Len())
	}
	empty := s.Slice(t0.Add(4*time.Minute), t0.Add(2*time.Minute))
	if empty.Len() != 0 {
		t.Fatal("inverted Slice must be empty")
	}
}

func TestAddAligned(t *testing.T) {
	a := mkSeries(time.Minute, 1, 1, 1, 1)
	b := FromValues(t0.Add(time.Minute), time.Minute, []float64{10, 10})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 11, 11, 1}
	for i, w := range want {
		if a.Values[i] != w {
			t.Fatalf("Add result[%d] = %v, want %v", i, a.Values[i], w)
		}
	}
}

func TestAddStepMismatch(t *testing.T) {
	a := mkSeries(time.Minute, 1)
	b := mkSeries(time.Second, 1)
	if err := a.Add(b); err == nil {
		t.Fatal("expected step-mismatch error")
	}
}

func TestAddOutOfRangeIgnored(t *testing.T) {
	a := mkSeries(time.Minute, 1, 1)
	b := FromValues(t0.Add(-time.Minute), time.Minute, []float64{5, 5, 5, 5, 5})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.Values[0] != 6 || a.Values[1] != 6 {
		t.Fatalf("Add overlap = %v", a.Values)
	}
}

func TestScaleMapMeanMinMax(t *testing.T) {
	s := mkSeries(time.Minute, 1, 2, 3)
	s.Scale(2)
	if s.Values[2] != 6 {
		t.Fatalf("Scale = %v", s.Values)
	}
	s.Map(func(v float64) float64 { return v + 1 })
	if s.Values[0] != 3 {
		t.Fatalf("Map = %v", s.Values)
	}
	if s.Mean() != 5 || s.Min() != 3 || s.Max() != 7 {
		t.Fatalf("Mean/Min/Max = %v/%v/%v", s.Mean(), s.Min(), s.Max())
	}
}

func TestIntegralIsEnergy(t *testing.T) {
	// 100 W for 2 one-minute samples = 100*120 J.
	s := mkSeries(time.Minute, 100, 100)
	if got := s.Integral(); got != 12000 {
		t.Fatalf("Integral = %v", got)
	}
}

func TestDayKindMatches(t *testing.T) {
	if !Weekdays.Matches(time.Monday) || Weekdays.Matches(time.Sunday) {
		t.Fatal("Weekdays classification wrong")
	}
	if !Weekends.Matches(time.Saturday) || Weekends.Matches(time.Friday) {
		t.Fatal("Weekends classification wrong")
	}
	if !AllDays.Matches(time.Wednesday) {
		t.Fatal("AllDays must match everything")
	}
	if Weekdays.String() != "weekdays" || Weekends.String() != "weekends" {
		t.Fatal("String names wrong")
	}
}

func TestReduceFuncs(t *testing.T) {
	xs := []float64{3, 1, 2}
	if ReduceMedian(xs) != 2 {
		t.Fatalf("median = %v", ReduceMedian(xs))
	}
	if ReduceMedian([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if ReduceMax(xs) != 3 {
		t.Fatalf("max = %v", ReduceMax(xs))
	}
	if ReduceMean(xs) != 2 {
		t.Fatalf("mean = %v", ReduceMean(xs))
	}
	if ReduceMedian(nil) != 0 || ReduceMax(nil) != 0 || ReduceMean(nil) != 0 {
		t.Fatal("empty reduces must be 0")
	}
}

// buildWeekSeries builds a 7-day series at 1h steps where the value encodes
// (weekday offset + hour): day d hour h = 100*d + h for weekdays, and
// 1000 + h for weekends.
func buildWeekSeries() *Series {
	s := New(t0, time.Hour) // t0 is Monday
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			ts := t0.Add(time.Duration(d*24+h) * time.Hour)
			if Weekends.Matches(ts.Weekday()) {
				s.Append(1000 + float64(h))
			} else {
				s.Append(float64(100*d + h))
			}
		}
	}
	return s
}

func TestBuildDayTemplateMedianAcrossWeekdays(t *testing.T) {
	s := buildWeekSeries()
	tmpl := BuildDayTemplate(s, Weekdays, ReduceMedian)
	if tmpl.NumSlots() != 24 {
		t.Fatalf("slots = %d", tmpl.NumSlots())
	}
	// At hour h the weekday samples are {h, 100+h, 200+h, 300+h, 400+h};
	// the median is 200+h.
	for h := 0; h < 24; h++ {
		want := 200 + float64(h)
		if got := tmpl.Slots[h]; got != want {
			t.Fatalf("slot %d = %v, want %v", h, got, want)
		}
		if tmpl.SampleCount(h) != 5 {
			t.Fatalf("slot %d samples = %d, want 5", h, tmpl.SampleCount(h))
		}
	}
}

func TestBuildDayTemplateWeekend(t *testing.T) {
	s := buildWeekSeries()
	tmpl := BuildDayTemplate(s, Weekends, ReduceMax)
	for h := 0; h < 24; h++ {
		if got := tmpl.Slots[h]; got != 1000+float64(h) {
			t.Fatalf("weekend slot %d = %v", h, got)
		}
		if tmpl.SampleCount(h) != 2 {
			t.Fatalf("weekend slot %d samples = %d", h, tmpl.SampleCount(h))
		}
	}
}

func TestDayTemplateAt(t *testing.T) {
	s := buildWeekSeries()
	tmpl := BuildDayTemplate(s, Weekdays, ReduceMedian)
	// 9:30 AM on any day maps to slot 9.
	ts := time.Date(2023, 4, 20, 9, 30, 0, 0, time.UTC)
	if got := tmpl.At(ts); got != 209 {
		t.Fatalf("At(9:30) = %v, want 209", got)
	}
	if tmpl.SlotOf(ts) != 9 {
		t.Fatalf("SlotOf = %d", tmpl.SlotOf(ts))
	}
}

func TestWeekTemplateSelectsByWeekday(t *testing.T) {
	s := buildWeekSeries()
	w := BuildWeekTemplate(s, ReduceMedian)
	mon := time.Date(2023, 4, 17, 12, 0, 0, 0, time.UTC) // Monday
	sat := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC) // Saturday
	if got := w.At(mon); got != 212 {
		t.Fatalf("weekday At = %v", got)
	}
	if got := w.At(sat); got != 1012 {
		t.Fatalf("weekend At = %v", got)
	}
}

func TestDayTemplateMaxAndCounts(t *testing.T) {
	s := buildWeekSeries()
	tmpl := BuildDayTemplate(s, Weekdays, ReduceMax)
	// Max over weekdays at hour 23 = 400+23.
	if got := tmpl.Max(); got != 423 {
		t.Fatalf("Max = %v", got)
	}
	if tmpl.SampleCount(-1) != 0 || tmpl.SampleCount(100) != 0 {
		t.Fatal("out-of-range SampleCount must be 0")
	}
}

func TestEmptyTemplateAt(t *testing.T) {
	tmpl := &DayTemplate{Step: time.Hour}
	if tmpl.At(t0) != 0 {
		t.Fatal("empty template At must be 0")
	}
}

// Property: integral is linear under scaling.
func TestIntegralLinearProperty(t *testing.T) {
	f := func(raw []float64, k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) || math.Abs(k) > 1e6 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				vals = append(vals, v)
			}
		}
		s := FromValues(t0, time.Minute, vals)
		before := s.Integral()
		after := s.Clone().Scale(k).Integral()
		return math.Abs(after-before*k) <= 1e-6*(1+math.Abs(before*k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: template values are bounded by series min/max for median and max
// reducers.
func TestTemplateBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := FromValues(t0, time.Hour, vals)
		lo, hi := s.Min(), s.Max()
		for _, reduce := range []Reduce{ReduceMedian, ReduceMax, ReduceMean} {
			tmpl := BuildDayTemplate(s, AllDays, reduce)
			for i, v := range tmpl.Slots {
				if tmpl.SampleCount(i) == 0 {
					continue
				}
				if v < lo-1e-9 || v > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatWeek(t *testing.T) {
	w := FlatWeek(42, time.Hour)
	mon := time.Date(2023, 4, 10, 13, 0, 0, 0, time.UTC)
	sat := time.Date(2023, 4, 15, 3, 0, 0, 0, time.UTC)
	if w.At(mon) != 42 || w.At(sat) != 42 {
		t.Fatalf("FlatWeek values: %v / %v", w.At(mon), w.At(sat))
	}
	if w.Weekday.NumSlots() != 24 || w.Weekend.NumSlots() != 24 {
		t.Fatalf("slots = %d/%d", w.Weekday.NumSlots(), w.Weekend.NumSlots())
	}
	// Degenerate step still yields one slot.
	d := FlatWeek(7, 48*time.Hour)
	if d.Weekday.NumSlots() != 1 || d.At(mon) != 7 {
		t.Fatal("degenerate FlatWeek wrong")
	}
}
