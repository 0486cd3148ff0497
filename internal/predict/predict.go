// Package predict implements the power/utilization prediction strategies
// SmartOClock evaluates for template creation (§IV-B, Fig 15):
//
//   - FlatMed:  a single constant, the median of all prior measurements
//   - FlatMax:  a single constant, the maximum of all prior measurements
//   - Weekly:   the raw measurement series from exactly one week earlier
//   - DailyMed: per-day aggregation — the median across the prior week's
//     days at the same time-of-day slot (SmartOClock's choice)
//   - DailyMax: per-day aggregation with the maximum
//
// All predictors are fitted on a history window and then queried at future
// instants; Evaluate computes the error metrics behind Fig 8 and Fig 15.
package predict

import (
	"fmt"
	"time"

	"smartoclock/internal/stats"
	"smartoclock/internal/timeseries"
)

// Predictor forecasts a scalar signal (rack power, server power, CPU
// utilization) at future instants after being fitted on history.
type Predictor interface {
	// Name returns the strategy name as used in the paper's Fig 15.
	Name() string
	// Fit trains the predictor on a history series. Fitting replaces any
	// previous state.
	Fit(history *timeseries.Series)
	// Predict returns the forecast value at ts. Predict on an unfitted
	// predictor returns 0.
	Predict(ts time.Time) float64
}

// FlatMed predicts the median of all history as a constant.
type FlatMed struct{ value float64 }

// Name implements Predictor.
func (*FlatMed) Name() string { return "FlatMed" }

// Fit implements Predictor.
func (p *FlatMed) Fit(h *timeseries.Series) { p.value = stats.Median(h.Values) }

// Predict implements Predictor.
func (p *FlatMed) Predict(time.Time) float64 { return p.value }

// FlatMax predicts the maximum of all history as a constant.
type FlatMax struct{ value float64 }

// Name implements Predictor.
func (*FlatMax) Name() string { return "FlatMax" }

// Fit implements Predictor.
func (p *FlatMax) Fit(h *timeseries.Series) { p.value = stats.Max(h.Values) }

// Predict implements Predictor.
func (p *FlatMax) Predict(time.Time) float64 { return p.value }

// Weekly predicts the raw measurement from exactly one week before the
// queried instant. It is sensitive to outliers in the source week (§V-B).
type Weekly struct{ history *timeseries.Series }

// Name implements Predictor.
func (*Weekly) Name() string { return "Weekly" }

// Fit implements Predictor.
func (p *Weekly) Fit(h *timeseries.Series) { p.history = h }

// Predict implements Predictor.
func (p *Weekly) Predict(ts time.Time) float64 {
	if p.history == nil {
		return 0
	}
	return p.history.At(ts.Add(-7 * 24 * time.Hour))
}

// Daily aggregates history into weekday/weekend day templates with a reduce
// function; DailyMed and DailyMax are its two instantiations.
type Daily struct {
	name     string
	reduce   timeseries.Reduce
	template *timeseries.WeekTemplate
}

// NewDailyMed returns the per-day-aggregation median predictor SmartOClock
// uses in production.
func NewDailyMed() *Daily { return &Daily{name: "DailyMed", reduce: timeseries.ReduceMedian} }

// NewDailyMax returns the per-day-aggregation maximum predictor.
func NewDailyMax() *Daily { return &Daily{name: "DailyMax", reduce: timeseries.ReduceMax} }

// Name implements Predictor.
func (p *Daily) Name() string { return p.name }

// Fit implements Predictor.
func (p *Daily) Fit(h *timeseries.Series) {
	p.template = timeseries.BuildWeekTemplate(h, p.reduce)
}

// Predict implements Predictor.
func (p *Daily) Predict(ts time.Time) float64 {
	if p.template == nil {
		return 0
	}
	return p.template.At(ts)
}

// Template returns the fitted week template, or nil before Fit.
func (p *Daily) Template() *timeseries.WeekTemplate { return p.template }

// All returns one fresh instance of every strategy, in the paper's Fig 15
// order.
func All() []Predictor {
	return []Predictor{&FlatMed{}, &FlatMax{}, &Weekly{}, NewDailyMed(), NewDailyMax()}
}

// Evaluation holds the error metrics of one predictor on one test window.
type Evaluation struct {
	Strategy string
	RMSE     float64 // root mean squared error (Fig 8)
	MeanErr  float64 // mean signed error, positive = over-prediction (Fig 15)
}

// Evaluate fits p on train and scores it against every sample of test.
func Evaluate(p Predictor, train, test *timeseries.Series) (Evaluation, error) {
	if test.Len() == 0 {
		return Evaluation{}, fmt.Errorf("predict: empty test window")
	}
	p.Fit(train)
	pred := make([]float64, test.Len())
	for i := range pred {
		pred[i] = p.Predict(test.TimeAt(i))
	}
	rmse, err := stats.RMSE(pred, test.Values)
	if err != nil {
		return Evaluation{}, err
	}
	me, err := stats.MeanError(pred, test.Values)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{Strategy: p.Name(), RMSE: rmse, MeanErr: me}, nil
}

// EvaluateAll scores every strategy on the same train/test split.
func EvaluateAll(train, test *timeseries.Series) ([]Evaluation, error) {
	out := make([]Evaluation, 0, 5)
	for _, p := range All() {
		ev, err := Evaluate(p, train, test)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}
