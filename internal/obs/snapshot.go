package obs

import (
	"encoding/json"
	"os"
)

// SchemaVersion identifies the snapshot wire format; bump on breaking
// changes so downstream tooling (benchmark diffing, CI artifacts) can
// reject snapshots it does not understand.
const SchemaVersion = "diffcode-metrics/v1"

// Snapshot is a point-in-time, versioned copy of a registry, the JSON
// artifact the -metrics flag emits at process exit. Map keys marshal in
// sorted order (encoding/json guarantees this), so snapshots of identical
// runs are byte-identical.
type Snapshot struct {
	Schema string `json:"schema"`
	// Partial marks a run that aborted early (fail-fast/max-errors); the
	// numbers cover only the work done before the abort.
	Partial    bool                    `json:"partial"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Slowest    map[string]SlowSnapshot `json:"slowest,omitempty"`
}

// HistSnapshot is one histogram: summary statistics plus the non-empty
// buckets (Le is the inclusive upper bound of each bucket). P50/P90/P99 are
// conservative quantile estimates derived from the bucket counts (see
// Histogram.Quantile) — additive fields, so pre-quantile consumers of the
// v1 schema keep parsing. Exemplar, when present, is the label (trace ID)
// of the slowest observation.
type HistSnapshot struct {
	Count    int64        `json:"count"`
	Sum      int64        `json:"sum"`
	Min      int64        `json:"min"`
	Max      int64        `json:"max"`
	P50      int64        `json:"p50,omitempty"`
	P90      int64        `json:"p90,omitempty"`
	P99      int64        `json:"p99,omitempty"`
	Exemplar string       `json:"exemplar,omitempty"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// SlowSnapshot names the slowest task observed in one span stage.
type SlowSnapshot struct {
	Task string `json:"task"`
	Us   int64  `json:"us"`
}

// TakeSnapshot copies the registry into a Snapshot. On a nil registry it
// returns an empty (but valid and marshalable) snapshot.
func TakeSnapshot(r *Registry, partial bool) *Snapshot {
	s := &Snapshot{Schema: SchemaVersion, Partial: partial}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = map[string]int64{}
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = map[string]int64{}
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = map[string]HistSnapshot{}
		for name, h := range r.hists {
			s.Histograms[name] = snapshotHist(h)
		}
	}
	for name, st := range r.stages {
		if st.slowTask == "" {
			continue
		}
		if s.Slowest == nil {
			s.Slowest = map[string]SlowSnapshot{}
		}
		s.Slowest[name] = SlowSnapshot{Task: st.slowTask, Us: st.slowDur.Microseconds()}
	}
	return s
}

func snapshotHist(h *Histogram) HistSnapshot {
	out := HistSnapshot{Count: h.Count(), Sum: h.Sum()}
	if out.Count > 0 {
		out.Min = h.min.Load()
		out.Max = h.max.Load()
		out.P50 = h.Quantile(0.5)
		out.P90 = h.Quantile(0.9)
		out.P99 = h.Quantile(0.99)
		out.Exemplar = h.Exemplar()
	}
	for i := 0; i <= numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, HistBucket{Le: BucketBound(i), N: n})
		}
	}
	return out
}

// MarshalJSON renders the snapshot with stable indentation for diffable
// artifacts.
func (s *Snapshot) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteSnapshotFile snapshots the registry and writes it to path. A nil
// registry writes an empty snapshot, so degraded runs always leave an
// artifact behind.
func WriteSnapshotFile(path string, r *Registry, partial bool) error {
	b, err := TakeSnapshot(r, partial).Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
