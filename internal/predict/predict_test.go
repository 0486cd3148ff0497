package predict

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/timeseries"
)

// histStart is a Monday.
var histStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// diurnal synthesizes a repeatable daily power pattern with optional noise
// and an optional outlier day.
func diurnal(days int, noise float64, outlierDay int, rng *rand.Rand) *timeseries.Series {
	s := timeseries.New(histStart, time.Hour)
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			v := 300 + 100*math.Sin(2*math.Pi*float64(h)/24)
			if noise > 0 {
				v += rng.NormFloat64() * noise
			}
			if d == outlierDay {
				v += 150 // unexpected event
			}
			s.Append(v)
		}
	}
	return s
}

func trainTest(days int, noise float64, outlierDay int) (train, test *timeseries.Series) {
	rng := rand.New(rand.NewSource(11))
	full := diurnal(days, noise, outlierDay, rng)
	split := histStart.Add(7 * 24 * time.Hour)
	return full.Slice(histStart, split), full.Slice(split, full.End())
}

func TestPredictorNames(t *testing.T) {
	want := []string{"FlatMed", "FlatMax", "Weekly", "DailyMed", "DailyMax"}
	ps := All()
	if len(ps) != len(want) {
		t.Fatalf("All() returned %d predictors", len(ps))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Errorf("predictor %d = %q, want %q", i, p.Name(), want[i])
		}
	}
}

func TestUnfittedPredictorsReturnZero(t *testing.T) {
	for _, p := range All() {
		if got := p.Predict(histStart); got != 0 {
			t.Errorf("%s unfitted Predict = %v", p.Name(), got)
		}
	}
}

func TestFlatMedPredictsMedian(t *testing.T) {
	s := timeseries.FromValues(histStart, time.Hour, []float64{1, 2, 3, 4, 100})
	p := &FlatMed{}
	p.Fit(s)
	if got := p.Predict(histStart.Add(48 * time.Hour)); got != 3 {
		t.Fatalf("FlatMed = %v", got)
	}
}

func TestFlatMaxPredictsMax(t *testing.T) {
	s := timeseries.FromValues(histStart, time.Hour, []float64{1, 2, 100, 4})
	p := &FlatMax{}
	p.Fit(s)
	if got := p.Predict(histStart); got != 100 {
		t.Fatalf("FlatMax = %v", got)
	}
}

func TestWeeklyLooksBackOneWeek(t *testing.T) {
	train, _ := trainTest(14, 0, -1)
	p := &Weekly{}
	p.Fit(train)
	ts := histStart.Add(8*24*time.Hour + 9*time.Hour) // Tue week 2, 9:00
	want := train.At(ts.Add(-7 * 24 * time.Hour))
	if got := p.Predict(ts); got != want {
		t.Fatalf("Weekly = %v, want %v", got, want)
	}
}

func TestDailyMedPerfectOnNoiselessPattern(t *testing.T) {
	train, test := trainTest(14, 0, -1)
	ev, err := Evaluate(NewDailyMed(), train, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.RMSE > 1e-9 {
		t.Fatalf("DailyMed RMSE on noiseless pattern = %v", ev.RMSE)
	}
}

func TestDailyTemplateAccessor(t *testing.T) {
	p := NewDailyMed()
	if p.Template() != nil {
		t.Fatal("template before Fit must be nil")
	}
	train, _ := trainTest(14, 0, -1)
	p.Fit(train)
	if p.Template() == nil {
		t.Fatal("template after Fit must be set")
	}
}

// TestFig15Shape verifies the orderings the paper reports: DailyMed is the
// most accurate; FlatMax over-predicts (negative error in the paper's sign
// convention means predictions above actual — here positive MeanErr);
// FlatMed has large errors at the daily peak; Weekly suffers from outliers.
func TestFig15Shape(t *testing.T) {
	// Outlier on day 3 of the training week.
	train, test := trainTest(14, 5, 3)
	evs, err := EvaluateAll(train, test)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Evaluation{}
	for _, ev := range evs {
		byName[ev.Strategy] = ev
	}
	dm := byName["DailyMed"]
	for name, ev := range byName {
		if name == "DailyMed" {
			continue
		}
		if dm.RMSE > ev.RMSE+1e-9 {
			t.Errorf("DailyMed RMSE %.2f not best vs %s %.2f", dm.RMSE, name, ev.RMSE)
		}
	}
	if byName["FlatMax"].MeanErr <= 0 {
		t.Errorf("FlatMax must over-predict, MeanErr = %v", byName["FlatMax"].MeanErr)
	}
	if byName["FlatMed"].RMSE <= dm.RMSE {
		t.Errorf("FlatMed must be worse than DailyMed")
	}
	if byName["Weekly"].RMSE <= dm.RMSE {
		t.Errorf("Weekly (outlier-affected) must be worse than DailyMed: %v vs %v",
			byName["Weekly"].RMSE, dm.RMSE)
	}
	if byName["DailyMax"].MeanErr <= dm.MeanErr {
		t.Errorf("DailyMax must over-predict more than DailyMed")
	}
}

func TestDailyMedRobustToOutlierDay(t *testing.T) {
	// With an outlier day in training, DailyMed (median across 5 weekdays)
	// must ignore it while Weekly replays it.
	trainOut, test := trainTest(14, 0, 2)
	med, err := Evaluate(NewDailyMed(), trainOut, test)
	if err != nil {
		t.Fatal(err)
	}
	weekly, err := Evaluate(&Weekly{}, trainOut, test)
	if err != nil {
		t.Fatal(err)
	}
	if med.RMSE > 1e-9 {
		t.Fatalf("DailyMed must reject a single outlier day, RMSE = %v", med.RMSE)
	}
	if weekly.RMSE < 10 {
		t.Fatalf("Weekly must replay the outlier, RMSE = %v", weekly.RMSE)
	}
}

func TestEvaluateEmptyTest(t *testing.T) {
	train, _ := trainTest(14, 0, -1)
	empty := timeseries.New(histStart, time.Hour)
	if _, err := Evaluate(&FlatMed{}, train, empty); err == nil {
		t.Fatal("expected error on empty test window")
	}
}

func TestOCRecorderAndTemplate(t *testing.T) {
	rec := NewOCRecorder(histStart, time.Hour)
	// Two identical weekdays: 5 cores requested, 4 granted 9:00-17:00.
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			if h >= 9 && h < 17 {
				rec.Record(5, 4)
			} else {
				rec.Record(0, 0)
			}
		}
	}
	if rec.requested.Len() != 48 {
		t.Fatalf("Len = %d", rec.requested.Len())
	}
	tpl := rec.Template()
	at := histStart.Add(7*24*time.Hour + 10*time.Hour) // next Monday 10:00
	if got := tpl.RequestedAt(at); got != 5 {
		t.Fatalf("RequestedAt = %v", got)
	}
	if got := tpl.GrantedAt(at); got != 4 {
		t.Fatalf("GrantedAt = %v", got)
	}
	night := histStart.Add(7*24*time.Hour + 3*time.Hour)
	if tpl.RequestedAt(night) != 0 {
		t.Fatal("no demand at night expected")
	}
}

func TestNilOCTemplateSafe(t *testing.T) {
	var tpl *OCTemplate
	if tpl.RequestedAt(histStart) != 0 || tpl.GrantedAt(histStart) != 0 {
		t.Fatal("nil template must return 0")
	}
}

func BenchmarkDailyMedFitPredict(b *testing.B) {
	train, test := trainTest(14, 5, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewDailyMed()
		p.Fit(train)
		for j := 0; j < test.Len(); j++ {
			p.Predict(test.TimeAt(j))
		}
	}
}

func TestOCRecorderSeriesAccessors(t *testing.T) {
	rec := NewOCRecorder(histStart, time.Hour)
	rec.Record(3, 2)
	if rec.requested.Values[0] != 3 || rec.granted.Values[0] != 2 {
		t.Fatalf("raw series: %v / %v", rec.requested.Values, rec.granted.Values)
	}
}
