package predict

import (
	"time"

	"smartoclock/internal/timeseries"
)

// OCTemplate is a server's overclock template: how many cores requested and
// were granted overclocking at each time-of-day slot (§IV-C). The Global
// Overclocking Agent combines these with power templates to split rack
// headroom heterogeneously.
type OCTemplate struct {
	Requested *timeseries.WeekTemplate
	Granted   *timeseries.WeekTemplate
}

// RequestedAt returns the typical number of cores requesting overclocking
// at the time-of-day of ts.
func (t *OCTemplate) RequestedAt(ts time.Time) float64 {
	if t == nil || t.Requested == nil {
		return 0
	}
	return t.Requested.At(ts)
}

// GrantedAt returns the typical number of cores granted overclocking at the
// time-of-day of ts.
func (t *OCTemplate) GrantedAt(ts time.Time) float64 {
	if t == nil || t.Granted == nil {
		return 0
	}
	return t.Granted.At(ts)
}

// OCRecorder accumulates per-slot observations of overclocking demand and
// produces OCTemplates from a server's recorded history.
type OCRecorder struct {
	requested *timeseries.Series
	granted   *timeseries.Series
}

// NewOCRecorder creates a recorder whose observations start at start and
// arrive every step.
func NewOCRecorder(start time.Time, step time.Duration) *OCRecorder {
	return &OCRecorder{
		requested: timeseries.New(start, step),
		granted:   timeseries.New(start, step),
	}
}

// Record appends one observation: the number of cores that requested and
// that were granted overclocking during the current slot.
func (r *OCRecorder) Record(requested, granted int) {
	r.requested.Append(float64(requested))
	r.granted.Append(float64(granted))
}

// Template builds the overclock template from all recorded observations
// using per-day median aggregation, mirroring the power templates.
func (r *OCRecorder) Template() *OCTemplate {
	return &OCTemplate{
		Requested: timeseries.BuildWeekTemplate(r.requested, timeseries.ReduceMedian),
		Granted:   timeseries.BuildWeekTemplate(r.granted, timeseries.ReduceMedian),
	}
}
