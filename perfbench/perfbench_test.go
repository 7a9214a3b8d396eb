package main

import (
	"context"
	"math"
	"testing"
	"time"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

func TestBatchKind(t *testing.T) {
	cases := []struct {
		name    string
		regions []relq.Region
		want    string
	}{
		{"origin cell", []relq.Region{relq.CellRegion([]int{0, 0, 0}, 5)}, kindPrefetch},
		{"origin as prefix", []relq.Region{relq.PrefixRegion([]float64{0, 0, 0})}, kindPrefetch},
		{"§6 midpoint", []relq.Region{relq.PrefixRegion([]float64{7.5, 0, 2.5})}, kindProbe},
		{"on-demand cell", []relq.Region{relq.CellRegion([]int{1, 0, 2}, 5)}, kindPrefetch},
		{"cell off the origin", []relq.Region{relq.CellRegion([]int{1, 1, 1}, 5)}, kindPrefetch},
		{"layer batch", []relq.Region{relq.CellRegion([]int{1, 0}, 5), relq.CellRegion([]int{0, 1}, 5)}, kindPrefetch},
	}
	for _, c := range cases {
		if got := batchKind(c.regions); got != c.want {
			t.Errorf("%s: batchKind = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPercentileRefusesSmallSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples: want an error")
	}
	if got, err := percentile(append(xs, 100), 90); err != nil || math.Abs(got-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1", got, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples: want an error")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 10.5 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", got, err)
	}
}

// smallUsers is a users workload small enough for quick searches.
func smallUsers(t *testing.T) (*state, acq) {
	t.Helper()
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 20_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := &state{cat: cat, orc: newOracle(cat), eng: exec.New(cat)}
	spec := workload.Spec{Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: 0.3}
	q, err := workload.BuildCalibrated(s.orc.naive, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, acq{spec: spec, q: q}
}

// The traced search must classify its batches and account for its
// whole wall time: self time plus batch time is the search's span.
func TestTracedSearchBreakdown(t *testing.T) {
	s, a := smallUsers(t)
	tr := newTracer()
	tr.beginSearch(0)
	res, err := core.RunContext(context.Background(), tracedEvaluator{e: s.eng, tr: tr}, a.q, searchOpts)
	tr.endSearch()
	if err != nil {
		t.Fatal(err)
	}
	b := breakdown(tr.spans)
	if b.searches != 1 || b.prefetchBatches == 0 || b.probeBatches == 0 {
		t.Fatalf("breakdown %+v: want one search with prefetch and probe batches", b)
	}
	if b.prefetchRegions+b.probeRegions != res.CellQueries {
		t.Errorf("batches carried %d regions, search reports %d cell queries", b.prefetchRegions+b.probeRegions, res.CellQueries)
	}
	if b.self() < 0 || b.self()+b.prefetch+b.probe != b.wall {
		t.Errorf("self %v + prefetch %v + probe %v != wall %v", b.self(), b.prefetch, b.probe, b.wall)
	}
	for _, sp := range tr.spans[1:] {
		if sp.Parent != 1 {
			t.Fatalf("batch span %+v not under the search span", sp)
		}
	}
	// The first batch of a search is the origin cell: a prefetch.
	if tr.spans[1].Kind != kindPrefetch || tr.spans[1].Regions != 1 {
		t.Errorf("first batch %+v: want the origin cell as a one-region prefetch", tr.spans[1])
	}
}

func TestBreakdownSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Kind: kindSearch, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Kind: kindPrefetch, Start: 1 * ms, End: 4 * ms, Regions: 5},
		{ID: 3, Parent: 1, Kind: kindProbe, Start: 5 * ms, End: 7 * ms, Regions: 1},
		{ID: 4, Kind: kindAppend, Start: 10 * ms, End: 11 * ms, Rows: 1000},
	}
	b := breakdown(spans)
	if b.self() != 5*ms || b.prefetch != 3*ms || b.probe != 2*ms || b.prefetchRegions != 5 || b.probeBatches != 1 {
		t.Fatalf("breakdown %+v, self %v", b, b.self())
	}
}

func TestOracleFlagsPerturbedPartial(t *testing.T) {
	s, a := smallUsers(t)
	res, err := core.RunContext(context.Background(), s.eng, a.q, searchOpts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.orc.check(a.q, res, searchOpts.Delta)
	if err != nil || len(bad) != 0 {
		t.Fatalf("unperturbed answers: %v, %v", bad, err)
	}
	res.Queries[len(res.Queries)-1].Aggregate++
	if bad, err = s.orc.check(a.q, res, searchOpts.Delta); err != nil || len(bad) != 1 {
		t.Fatalf("COUNT off by one: got %v, %v; want one mismatch", bad, err)
	}
	if bad, _ = s.orc.check(a.q, &core.Result{}, searchOpts.Delta); len(bad) != 1 {
		t.Fatalf("unsatisfied search: got %v, want one mismatch", bad)
	}
}

// tinyTPCH is a TPC-H catalog NaiveAggregate can enumerate.
func tinyTPCH(t *testing.T) *exec.Engine {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{Rows: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return exec.New(cat)
}

// The join oracle must agree with NaiveAggregate on every query shape
// of the tpch-join mix, at the origin and at refined prefix regions —
// wide enough on the band axis to admit neighbouring suppliers.
func TestJoinAggregateMatchesNaive(t *testing.T) {
	e := tinyTPCH(t)
	w, err := lookupWorkload("tpch-join")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, spec := range w.specs() {
		q, err := workload.Build(e, spec)
		if err != nil {
			t.Fatal(err)
		}
		q.Constraint.Target = 1
		for _, score := range []float64{0, 3, 15, 60} {
			scores := make([]float64, q.NumDims())
			for i := range scores {
				scores[i] = score * float64(i+1) / 2
			}
			r := relq.PrefixRegion(scores)
			want, err := e.NaiveAggregate(q, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := joinAggregate(e.Catalog(), q, r)
			if err != nil {
				t.Fatal(err)
			}
			if !agg.ApproxEqual(got, want, 1e-12) {
				t.Fatalf("%+v at %v: join oracle %+v, NaiveAggregate %+v", spec, scores, got, want)
			}
			if want.Count > 0 {
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d non-empty comparisons; the catalog is too small to test anything", checked)
	}
}

func TestMixes(t *testing.T) {
	for _, w := range workloads {
		specs := w.specs()
		if len(specs) != 25 {
			t.Errorf("%s: %d ACQs, want 25", w.name, len(specs))
		}
		if w.live {
			for i, s := range specs {
				if want := 2 + i%2; s.Dims != want {
					t.Errorf("%s: ACQ %d has %d predicates, want %d", w.name, i, s.Dims, want)
				}
			}
		}
	}
}
