package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one cumulative histogram bucket with a finite upper bound. The
// +Inf bucket is implicit: its cumulative count equals Series.Count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Series is one frozen metric series. For counters and gauges Value holds
// the reading; for histograms Value holds the sum of observations and
// Count/Buckets hold the distribution.
//
// Labels is nil when unlabeled. In a snapshot taken from a Registry it is
// the registry's own map, shared read-only with every snapshot of that
// registry and every merge of them: never write to it. Merge copies only
// the labels of series it had to derive an identity for.
type Series struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`

	// key caches the canonical identity of a series frozen from a registry
	// or produced by Merge, which is why such a series' Name and Labels are
	// read-only. It is empty on a decoded or hand-built series.
	key string
}

// id returns the canonical sort identity of the series, derived from its
// name and labels when it is not cached.
func (s *Series) id() string {
	if s.key != "" {
		return s.key
	}
	return mapSeriesID(s.Name, s.Labels)
}

// mapSeriesID renders the canonical identity of a name and a label map.
func mapSeriesID(name string, labels map[string]string) string {
	keys := sortedKeys(labels)
	ls := make([]Label, len(keys))
	for i, k := range keys {
		ls[i] = Label{Key: k, Value: labels[k]}
	}
	return seriesID(name, ls)
}

// Snapshot is an immutable, sorted copy of a registry's state, suitable for
// exposition, diffing, and deterministic cross-shard merging.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Snapshot freezes the registry. Series are ordered by canonical identity
// (name, then sorted labels), so two registries holding the same values
// produce byte-identical snapshots regardless of registration order.
//
// The registry keeps its instruments in that order, so this is one pass
// with no sort and no string work. It allocates the Snapshot, its Series
// slice and one bucket array carved up among the histograms. Each Series'
// Labels map is the registry's own: it is shared, read-only, with every
// snapshot taken, and must not be written.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Series: make([]Series, len(r.sorted))}
	var arena []Bucket
	if r.buckets > 0 {
		arena = make([]Bucket, r.buckets)
	}
	for i, ins := range r.sorted {
		s := &snap.Series[i]
		s.Name, s.Type, s.Labels, s.key = ins.name, ins.kind.String(), ins.labels, ins.id
		switch ins.kind {
		case KindCounter:
			s.Value = ins.c.v
		case KindGauge:
			s.Value = ins.g.v
		case KindHistogram:
			h := ins.h
			s.Value = h.sum
			s.Count = h.count
			n := len(h.uppers)
			s.Buckets, arena = arena[:n:n], arena[n:]
			var cum uint64
			for j, ub := range h.uppers {
				cum += h.counts[j]
				s.Buckets[j] = Bucket{LE: ub, Count: cum}
			}
		}
	}
	return snap
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatFloat renders v with the shortest exact representation, matching
// the repo-wide convention for byte-stable float output.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue applies Prometheus label-value escaping.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promLabels renders {k="v",...} with keys sorted, plus an optional extra
// trailing label (used for histogram "le"). Returns "" for no labels.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	keys := sortedKeys(labels)
	var b strings.Builder
	writePair := func(k, v string) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	for _, k := range keys {
		writePair(k, labels[k])
	}
	if extraKey != "" {
		writePair(extraKey, extraVal)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

// WriteProm writes the snapshot in Prometheus text exposition format 0.0.4.
// Output is byte-deterministic: series are already sorted and floats use
// shortest-exact formatting.
func (s *Snapshot) WriteProm(w io.Writer) error {
	lastTyped := ""
	for i := range s.Series {
		sr := &s.Series[i]
		if sr.Name != lastTyped {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sr.Name, sr.Type); err != nil {
				return err
			}
			lastTyped = sr.Name
		}
		switch sr.Type {
		case "histogram":
			for _, b := range sr.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					sr.Name, promLabels(sr.Labels, "le", formatFloat(b.LE)), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				sr.Name, promLabels(sr.Labels, "le", "+Inf"), sr.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				sr.Name, promLabels(sr.Labels, "", ""), formatFloat(sr.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				sr.Name, promLabels(sr.Labels, "", ""), sr.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				sr.Name, promLabels(sr.Labels, "", ""), formatFloat(sr.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON. encoding/json emits map
// keys sorted, so the output is byte-deterministic.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSnapshot parses a snapshot previously written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	return &s, nil
}

// cloneLabels returns an independent copy of a label map (nil stays nil).
func cloneLabels(labels map[string]string) map[string]string {
	if labels == nil {
		return nil
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	return cp
}

// Find returns the series with the given name and labels, or nil.
func (s *Snapshot) Find(name string, labels map[string]string) *Series {
	id := mapSeriesID(name, labels)
	for i := range s.Series {
		if s.Series[i].id() == id {
			return &s.Series[i]
		}
	}
	return nil
}

// SumByName sums Value across all series with the given name (for
// histograms this sums observation sums; use SumCountByName for counts).
func (s *Snapshot) SumByName(name string) float64 {
	var sum float64
	for i := range s.Series {
		if s.Series[i].Name == name {
			sum += s.Series[i].Value
		}
	}
	return sum
}

// DiffEntry is one series compared across two snapshots.
type DiffEntry struct {
	Name   string
	Labels string // rendered {k="v",...}, "" when unlabeled
	Type   string
	Before float64 // counter/gauge value; histogram count
	After  float64
	Delta  float64
}

// Diff compares two snapshots series-by-series, returning one entry per
// identity in either snapshot, sorted by canonical identity. Counters and
// gauges compare Value; histograms compare observation Count. Missing
// series count as zero on the missing side.
func Diff(before, after *Snapshot) []DiffEntry {
	type half struct {
		sr  *Series
		val float64
	}
	reading := func(sr *Series) float64 {
		if sr.Type == "histogram" {
			return float64(sr.Count)
		}
		return sr.Value
	}
	all := make(map[string][2]half)
	collect := func(snap *Snapshot, side int) {
		if snap == nil {
			return
		}
		for i := range snap.Series {
			sr := &snap.Series[i]
			id := sr.id()
			pair := all[id]
			pair[side] = half{sr: sr, val: reading(sr)}
			all[id] = pair
		}
	}
	collect(before, 0)
	collect(after, 1)
	ids := sortedKeys(all)
	out := make([]DiffEntry, 0, len(ids))
	for _, id := range ids {
		pair := all[id]
		ref := pair[0].sr
		if ref == nil {
			ref = pair[1].sr
		}
		e := DiffEntry{
			Name:   ref.Name,
			Labels: promLabels(ref.Labels, "", ""),
			Type:   ref.Type,
			Before: pair[0].val,
			After:  pair[1].val,
		}
		e.Delta = e.After - e.Before
		if math.IsNaN(e.Delta) {
			e.Delta = 0
		}
		out = append(out, e)
	}
	return out
}
