package timeseries

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// badTemplates are checkpoint templates that decoded cleanly before the
// decoder validated them and then panicked on their first lookup: a zero
// step divides by zero, a negative step indexes a negative slot, and a
// missing weekend half is a nil dereference on a Saturday.
var badTemplates = []struct {
	name, json string
}{
	{"zero step", `{"Weekday":{"step":0,"slots":[1,2]},"Weekend":{"step":0,"slots":[1,2]}}`},
	{"negative step", `{"Weekday":{"step":-600000000000,"slots":[1,2]},"Weekend":{"step":-600000000000,"slots":[1,2]}}`},
	{"missing weekend", `{"Weekday":{"step":43200000000000,"slots":[1,2]}}`},
}

// TestTemplateDecodeRejectsUnusable checks every bad template is refused at
// decode, along with the sample-count and null-half variants, while the
// templates the simulator writes still decode.
func TestTemplateDecodeRejectsUnusable(t *testing.T) {
	cases := append([]struct{ name, json string }{
		{"counts shorter than slots", `{"Weekday":{"step":43200000000000,"slots":[1,2],"counts":[3]},"Weekend":{"step":43200000000000,"slots":[1,2]}}`},
		{"null weekday", `{"Weekday":null,"Weekend":{"step":43200000000000,"slots":[1,2]}}`},
		{"null", `null`},
	}, badTemplates...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w WeekTemplate
			if err := json.Unmarshal([]byte(c.json), &w); err == nil {
				t.Fatalf("decoded %s; At(Saturday) would read %+v", c.json, w)
			}
		})
	}
	for _, w := range seedWeekTemplates(t) {
		var got WeekTemplate
		if err := json.Unmarshal(w, &got); err != nil {
			t.Fatalf("valid template %s rejected: %v", w, err)
		}
	}
	// A nil template behind a pointer is still a valid absent template.
	var holder struct{ T *WeekTemplate }
	if err := json.Unmarshal([]byte(`{"T":null}`), &holder); err != nil || holder.T != nil {
		t.Fatalf("null pointer template: %v, %+v", err, holder.T)
	}
}

// seedWeekTemplates returns the encodings of a flat week and of a week
// fitted from two weeks of samples.
func seedWeekTemplates(t testing.TB) [][]byte {
	s := New(t0, time.Hour)
	for i := 0; i < 14*24; i++ {
		s.Append(float64(i % 24))
	}
	var out [][]byte
	for _, w := range []*WeekTemplate{FlatWeek(3.5, 5*time.Minute), BuildWeekTemplate(s, ReduceMedian)} {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzWeekTemplateJSON feeds arbitrary bytes to the week template decoder.
// Decoding never panics; an accepted template answers At at any instant
// without panicking; and decode → encode → decode is a fixed point.
func FuzzWeekTemplateJSON(f *testing.F) {
	for _, b := range seedWeekTemplates(f) {
		f.Add(b, int64(1681574400), int64(0))
	}
	for _, c := range badTemplates {
		f.Add([]byte(c.json), int64(1681574400), int64(0)) // a Saturday
	}
	f.Fuzz(func(t *testing.T, data []byte, sec, nsec int64) {
		var w WeekTemplate
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		ts := time.Unix(sec, nsec)
		for _, loc := range []*time.Location{time.UTC, time.FixedZone("", -(9*3600 + 30*60))} {
			w.At(ts.In(loc))
		}
		enc, err := json.Marshal(&w)
		if err != nil {
			t.Fatalf("accepted template does not encode: %v", err)
		}
		var again WeekTemplate
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		enc2, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
