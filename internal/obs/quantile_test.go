package obs

import (
	"math"
	"testing"
)

// TestHistogramQuantile checks the bucket-interpolated estimate on a
// hand-computed distribution: bounds {1,2,4}, ten observations split
// 5 in (0,1], 3 in (1,2], 2 in (2,4].
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 5; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 3; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 2; i++ {
		h.Observe(3)
	}
	cases := []struct {
		q, want float64
	}{
		{0.5, 1.0},  // rank 5 = top of first bucket: 0 + 1*(5/5)
		{0.25, 0.5}, // rank 2.5 mid first bucket: 0 + 1*(2.5/5)
		{0.8, 2.0},  // rank 8 = top of second bucket: 1 + 1*(3/3)
		{0.9, 3.0},  // rank 9 mid third bucket: 2 + 2*(1/2)
		{1.0, 4.0},  // rank 10 = top of third bucket
		{0.0, 0.0},  // rank 0 interpolates from bucket floor
		{-0.5, 0.0}, // clamped
		{1.5, 4.0},  // clamped
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileInfBucket: ranks landing in the +Inf bucket
// clamp to the highest finite bound instead of inventing a value.
func TestHistogramQuantileInfBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100) // +Inf bucket
	h.Observe(100)
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("Quantile in +Inf bucket = %v, want 2 (highest bound)", got)
	}
}

// TestHistogramQuantileEmpty: empty and nil histograms return NaN.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{1})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %v, want NaN", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("nil Quantile = %v, want NaN", got)
	}
}

// TestSnapshotQuantileKeys: non-empty histograms expose _p50/_p95/_p99
// in Registry.Snapshot; empty ones omit the keys entirely (NaN would
// break json.Marshal on harness result files).
func TestSnapshotQuantileKeys(t *testing.T) {
	reg := NewRegistry()
	full := reg.Histogram(`acquire_phase_duration_seconds{phase="search"}`, "", []float64{0.001, 0.01, 0.1})
	reg.Histogram(`acquire_phase_duration_seconds{phase="idle"}`, "", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 4; i++ {
		full.Observe(0.005)
	}
	snap := reg.Snapshot()
	for _, key := range []string{
		`acquire_phase_duration_seconds_p50{phase="search"}`,
		`acquire_phase_duration_seconds_p95{phase="search"}`,
		`acquire_phase_duration_seconds_p99{phase="search"}`,
	} {
		v, ok := snap[key]
		if !ok {
			t.Errorf("snapshot missing %s", key)
			continue
		}
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v", key, v)
		}
	}
	if _, ok := snap[`acquire_phase_duration_seconds_p50{phase="idle"}`]; ok {
		t.Error("empty histogram leaked a NaN quantile key into the snapshot")
	}
}

// TestVisitHistograms: the registry walk yields every histogram series
// by full name without holding the registry lock against re-entry.
func TestVisitHistograms(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`h1`, "", []float64{1})
	reg.Histogram(`h2{shard="0"}`, "", []float64{1})
	reg.Counter("c1", "") // must not be visited
	seen := map[string]bool{}
	reg.VisitHistograms(func(name string, h *Histogram) {
		if h == nil {
			t.Errorf("nil histogram for %s", name)
		}
		seen[name] = true
		reg.Counter("reentrant", "").Inc() // deadlock check
	})
	if !seen["h1"] || !seen[`h2{shard="0"}`] || len(seen) != 2 {
		t.Errorf("visited %v", seen)
	}
}
