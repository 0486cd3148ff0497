package timeseries

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// DayKind selects which days of the week a template aggregates over.
// SmartOClock keeps separate templates for weekdays and weekends (§IV-B).
type DayKind int

const (
	// Weekdays selects Monday through Friday.
	Weekdays DayKind = iota
	// Weekends selects Saturday and Sunday.
	Weekends
	// AllDays selects every day.
	AllDays
)

// String returns a human-readable name for the day kind.
func (k DayKind) String() string {
	switch k {
	case Weekdays:
		return "weekdays"
	case Weekends:
		return "weekends"
	case AllDays:
		return "alldays"
	default:
		return fmt.Sprintf("DayKind(%d)", int(k))
	}
}

// Matches reports whether weekday belongs to the kind.
func (k DayKind) Matches(d time.Weekday) bool {
	switch k {
	case Weekdays:
		return d >= time.Monday && d <= time.Friday
	case Weekends:
		return d == time.Saturday || d == time.Sunday
	default:
		return true
	}
}

// Reduce collapses the per-day samples of one time-of-day slot into a single
// template value. A Reduce may reorder samples in place; callers must not
// rely on the slice's order afterwards.
type Reduce func(samples []float64) float64

// ReduceMedian returns the median of the samples (the paper's DailyMed).
// It sorts samples in place: template fitting runs once per server per
// experiment shard, and the avoided copy was the single largest allocation
// source in the fleet-simulation profile.
func ReduceMedian(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// ReduceMax returns the maximum of the samples (the paper's DailyMax).
func ReduceMax(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// DayTemplate is a single representative day at a fixed slot width: the
// paper's "power template". Slot i covers [i*Step, (i+1)*Step) of a day.
type DayTemplate struct {
	Step   time.Duration
	Slots  []float64
	Kind   DayKind
	counts []int // number of contributing days per slot, for diagnostics
}

// slotOf returns the slot of width step that ts's time of day (whole
// seconds since midnight in ts's location, from one ts.Clock) falls in,
// clamped to the last of n slots.
func slotOf(ts time.Time, step time.Duration, n int) int {
	h, m, sec := ts.Clock()
	sinceMidnight := time.Duration(h)*time.Hour +
		time.Duration(m)*time.Minute +
		time.Duration(sec)*time.Second
	i := int(sinceMidnight / step)
	if i >= n {
		i = n - 1
	}
	return i
}

// SlotOf returns the slot index for instant ts.
func (t *DayTemplate) SlotOf(ts time.Time) int {
	return slotOf(ts, t.Step, len(t.Slots))
}

// At returns the template value for the time of day of ts. It does not check
// that ts's weekday matches the template's kind; callers pick the template.
func (t *DayTemplate) At(ts time.Time) float64 {
	if len(t.Slots) == 0 {
		return 0
	}
	return t.Slots[t.SlotOf(ts)]
}

// SampleCount returns how many days contributed to slot i.
func (t *DayTemplate) SampleCount(i int) int {
	if i < 0 || i >= len(t.counts) {
		return 0
	}
	return t.counts[i]
}

// dayTemplateJSON is the wire form of a DayTemplate; it exists so the
// unexported per-slot sample counts survive a checkpoint/restore cycle.
type dayTemplateJSON struct {
	Step   time.Duration `json:"step"`
	Slots  []float64     `json:"slots"`
	Kind   DayKind       `json:"kind"`
	Counts []int         `json:"counts,omitempty"`
}

// MarshalJSON implements json.Marshaler, including the diagnostic sample
// counts that the exported fields alone would lose.
func (t *DayTemplate) MarshalJSON() ([]byte, error) {
	return json.Marshal(dayTemplateJSON{Step: t.Step, Slots: t.Slots, Kind: t.Kind, Counts: t.counts})
}

// UnmarshalJSON implements json.Unmarshaler. Templates arrive from
// checkpoints, so it rejects what would make a lookup panic: a step that is
// not positive, or sample counts that do not pair with the slots.
func (t *DayTemplate) UnmarshalJSON(data []byte) error {
	var w dayTemplateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Step <= 0 {
		return fmt.Errorf("timeseries: day template step %v is not positive", w.Step)
	}
	if len(w.Counts) != 0 && len(w.Counts) != len(w.Slots) {
		return fmt.Errorf("timeseries: day template has %d sample counts for %d slots", len(w.Counts), len(w.Slots))
	}
	t.Step = w.Step
	t.Slots = w.Slots
	t.Kind = w.Kind
	t.counts = w.Counts
	return nil
}

// fitDays builds one day template per kind into out, classifying each
// sample once. A sample feeds the first kind its weekday matches, so the
// kinds should be disjoint. Template fitting runs once per server per
// experiment shard, so it is built in two passes over a single backing
// array instead of growing a slice per slot: pass one records each
// sample's (kind, slot) class and the per-class counts, pass two
// partitions the samples contiguously, in series order within a class.
func fitDays(s *Series, reduce Reduce, kinds []DayKind, out []*DayTemplate) {
	slotsPerDay := int(24 * time.Hour / s.Step)
	if slotsPerDay < 1 {
		slotsPerDay = 1
	}
	classOf := make([]int32, len(s.Values))
	counts := make([]int, len(kinds)*slotsPerDay)
	for i := range s.Values {
		ts := s.TimeAt(i)
		wd := ts.Weekday()
		classOf[i] = -1
		for k, kind := range kinds {
			if kind.Matches(wd) {
				c := k*slotsPerDay + slotOf(ts, s.Step, slotsPerDay)
				classOf[i] = int32(c)
				counts[c]++
				break
			}
		}
	}
	// next[c] starts at class c's offset in backing and ends one past its
	// last sample.
	next := make([]int, len(counts))
	total := 0
	for c, n := range counts {
		next[c] = total
		total += n
	}
	backing := make([]float64, total)
	for i, v := range s.Values {
		if c := classOf[i]; c >= 0 {
			backing[next[c]] = v
			next[c]++
		}
	}
	for k, kind := range kinds {
		lo, hi := k*slotsPerDay, (k+1)*slotsPerDay
		t := &DayTemplate{Step: s.Step, Kind: kind,
			Slots: make([]float64, slotsPerDay), counts: counts[lo:hi:hi]}
		for i, n := range t.counts {
			end := next[lo+i]
			t.Slots[i] = reduce(backing[end-n : end])
		}
		out[k] = t
	}
}

// WeekTemplate pairs a weekday template with a weekend template, selecting
// the right one by the weekday of the queried instant.
type WeekTemplate struct {
	Weekday *DayTemplate
	Weekend *DayTemplate
}

// UnmarshalJSON implements json.Unmarshaler over the default wire form. It
// rejects a template missing either half, which would panic on the first
// lookup that falls on that half.
func (w *WeekTemplate) UnmarshalJSON(data []byte) error {
	type wire WeekTemplate
	var v wire
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if v.Weekday == nil || v.Weekend == nil {
		return fmt.Errorf("timeseries: week template without a weekday or weekend half")
	}
	*w = WeekTemplate(v)
	return nil
}

// BuildWeekTemplate builds both day templates from the series with the given
// reduce function, in one pass over the series.
func BuildWeekTemplate(s *Series, reduce Reduce) *WeekTemplate {
	var t [2]*DayTemplate
	fitDays(s, reduce, []DayKind{Weekdays, Weekends}, t[:])
	return &WeekTemplate{Weekday: t[0], Weekend: t[1]}
}

// At returns the template value for instant ts, using the weekday or weekend
// template as appropriate.
func (w *WeekTemplate) At(ts time.Time) float64 {
	if Weekends.Matches(ts.Weekday()) {
		return w.Weekend.At(ts)
	}
	return w.Weekday.At(ts)
}

// FlatWeek returns a week template holding a single constant value at the
// given slot width — useful for pushing scalar budgets through
// template-shaped interfaces.
func FlatWeek(v float64, step time.Duration) *WeekTemplate {
	slots := int(24 * time.Hour / step)
	if slots < 1 {
		slots = 1
	}
	mk := func(kind DayKind) *DayTemplate {
		t := &DayTemplate{Step: step, Kind: kind, Slots: make([]float64, slots)}
		for i := range t.Slots {
			t.Slots[i] = v
		}
		return t
	}
	return &WeekTemplate{Weekday: mk(Weekdays), Weekend: mk(Weekends)}
}
