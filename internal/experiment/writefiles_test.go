package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// TestFleetObservationWriteFiles checks the format WriteFiles picks from
// each path's suffix: Prometheus text or JSON for metrics, CSV or JSON for
// series. Empty paths and nil parts write nothing.
func TestFleetObservationWriteFiles(t *testing.T) {
	reg := metrics.NewRegistry()
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	rec := metrics.NewRecorder(reg, start, time.Minute)
	c := reg.Counter("ops_total", metrics.L("shard", "0"))
	for i := 1; i <= 3; i++ {
		c.Add(float64(i))
		rec.Tick(start.Add(time.Duration(i) * time.Minute))
	}
	o := &FleetObservation{Metrics: reg.Snapshot(), Series: rec.Recording()}

	render := func(write func(io.Writer) error) []byte {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := []struct {
		metricsName, seriesName string
		metrics, series         func(io.Writer) error
	}{
		{"m.prom", "s.csv", o.Metrics.WriteProm, o.Series.WriteCSV},
		{"m.json", "s.json", o.Metrics.WriteJSON, o.Series.WriteJSON},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		mPath, sPath := filepath.Join(dir, tc.metricsName), filepath.Join(dir, tc.seriesName)
		if err := o.WriteFiles(mPath, "", sPath, filepath.Join(dir, "prov.jsonl")); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			path string
			want []byte
		}{{mPath, render(tc.metrics)}, {sPath, render(tc.series)}} {
			got, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, f.want) {
				t.Errorf("%s: wrote %d bytes that differ from the %s writer's %d", f.path, len(got), filepath.Ext(f.path), len(f.want))
			}
		}
		// No trace path and no provenance part: only the two files exist.
		if entries, _ := os.ReadDir(dir); len(entries) != 2 {
			t.Errorf("%d files written, want 2", len(entries))
		}
	}

	dir := t.TempDir()
	var none *FleetObservation
	if err := none.WriteFiles(filepath.Join(dir, "m.prom"), filepath.Join(dir, "t.jsonl"), "", ""); err != nil {
		t.Fatalf("nil observation: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("nil observation wrote %d files", len(entries))
	}
	tr := &FleetObservation{Trace: obs.New()}
	if err := tr.WriteFiles("", "", "", ""); err != nil {
		t.Fatalf("empty paths: %v", err)
	}
}
