package main

import (
	"fmt"
	"math/rand"
	"time"

	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

// ratios is the aggregate-ratio axis of fig. 8 and fig. 11: the
// original query attains this share of its target.
var ratios = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// workloadDef is one benchmark workload: a dataset, an ACQ mix over it,
// and whether the table grows between searches.
type workloadDef struct {
	name string
	// rows is the users cardinality, or partsupp's for TPC-H.
	rows int
	tpch bool
	// live workloads append appendRows rows to the users table after
	// every appendEvery searches and re-calibrate each ACQ before it
	// runs; their run length is a number of passes, not a duration.
	live bool
	// specs lists the mix before the seed shuffles it.
	specs func() []workload.Spec
}

const (
	appendEvery = 5
	appendRows  = 1000
)

var workloads = []workloadDef{
	{
		// Fig. 8's shape: 3-predicate COUNT over the ratio sweep, with
		// every rotation of the predicate pool. §6 repartition probes
		// dominate the search here.
		name: "users-sweep", rows: 300_000,
		specs: func() []workload.Spec {
			var s []workload.Spec
			for _, r := range ratios {
				for off := 0; off < 5; off++ {
					s = append(s, workload.Spec{Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: r, AttrOffset: off})
				}
			}
			return s
		},
	},
	{
		// Fig. 11's join: COUNT/SUM/MAX rotated over ratios and pool
		// rotations; AttrOffset 4 refines the supplier–partsupp join as
		// a band. Cell-batch dispatch and the engine's scan/join
		// dominate; repartitioning is a small share.
		name: "tpch-join", rows: 50_000, tpch: true,
		specs: func() []workload.Spec {
			aggs := []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMax}
			var s []workload.Spec
			for ri, r := range ratios {
				for off := 0; off < 5; off++ {
					s = append(s, workload.Spec{Kind: workload.TPCH, Dims: 3, Agg: aggs[(ri+off)%3],
						Ratio: r, AttrOffset: off, RefinableJoin: off == 4})
				}
			}
			return s
		},
	},
	{
		// Writes beside reads: a long-lived engine with the region
		// cache and Z-order auto-clustering, 2-predicate (age × income)
		// and 3-predicate COUNT alternating, the table growing between
		// searches.
		name: "users-live", rows: 200_000, live: true,
		specs: func() []workload.Spec {
			var s []workload.Spec
			for i := 0; i < 25; i++ {
				if i%2 == 0 {
					s = append(s, workload.Spec{Kind: workload.Users, Dims: 2, Agg: relq.AggCount, Ratio: ratios[(i/2)%5]})
				} else {
					s = append(s, workload.Spec{Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: ratios[(i/2)%5], AttrOffset: (i / 2) % 5})
				}
			}
			return s
		},
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newEngine is the one place the benchmark configures an engine. Every
// workload but users-live runs the engine's defaults: the vectorized
// scan with no region cache, grid index or auto-clustering, and the
// worker pool at GOMAXPROCS. The benchmark deliberately leaves out
// sharding, explicit clustering, the legacy scan and the grid
// aggregate index.
func newEngine(w *workloadDef, cat *data.Catalog) *exec.Engine {
	e := exec.New(cat)
	if w.live {
		e.EnableRegionCache(64 << 20)
		e.SetAutoCluster(true)
		e.SetZOrder(true)
	}
	return e
}

// acq is one ACQ of a mix: the query, with its target calibrated to
// spec.Ratio.
type acq struct {
	spec workload.Spec
	q    *relq.Query
}

// dataSeed generates every workload's dataset. The data is fixed, as a
// standard benchmark's tables are; --seed orders the mix and draws the
// rows users-live appends. Across data seeds the discrete refinement
// layers move single ACQs by several times, which spread the p50 of a
// 25-ACQ mix by 16% between seeds, wider than any useful regression
// bound.
const dataSeed = 1

// generate builds a dataset of the workload's shape.
func generate(w *workloadDef, seed int64, rows int) (*data.Catalog, error) {
	if w.tpch {
		return tpch.Generate(tpch.Config{Rows: rows, Seed: seed})
	}
	return tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: seed})
}

// factTable is the table appends go to.
func (w *workloadDef) factTable() string {
	if w.tpch {
		return "partsupp"
	}
	return "users"
}

// buildMix builds and calibrates the workload's ACQs. The seed orders
// the mix of the read-only workloads; users-live keeps its order, which
// fixes which ACQs share a cache generation between two appends, so
// that its seed only draws the appended rows. Calibration measures each
// original query on cal, an engine other than the one under test.
func buildMix(w *workloadDef, cal *exec.Engine, seed int64) ([]acq, error) {
	specs := w.specs()
	if !w.live {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	mix := make([]acq, len(specs))
	for i, s := range specs {
		q, err := workload.BuildCalibrated(cal, s)
		if err != nil {
			return nil, fmt.Errorf("acq %d (%+v): %w", i, s, err)
		}
		mix[i] = acq{spec: s, q: q}
	}
	return mix, nil
}

// appendSource hands out rows, in order, from a second dataset of the
// same shape, generated from the run's seed.
type appendSource struct {
	t    *data.Table
	next int
}

func newAppendSource(w *workloadDef, seed int64, rows int) (*appendSource, error) {
	cat, err := generate(w, dataSeed+seed, rows)
	if err != nil {
		return nil, err
	}
	t, err := cat.Table(w.factTable())
	if err != nil {
		return nil, err
	}
	return &appendSource{t: t}, nil
}

// appendTo appends n rows to the catalog's current fact table (an
// auto-clustering engine swaps in re-laid-out tables, so the table is
// looked up anew every time) and returns how long the AppendRow calls
// took.
func (s *appendSource) appendTo(w *workloadDef, cat *data.Catalog, n int) (time.Duration, error) {
	t, err := cat.Table(w.factTable())
	if err != nil {
		return 0, err
	}
	if s.next+n > s.t.NumRows() {
		return 0, fmt.Errorf("append source exhausted after %d rows", s.next)
	}
	ncol := s.t.Schema().Len()
	rows := make([][]data.Value, n)
	for i := range rows {
		rows[i] = make([]data.Value, ncol)
		for c := 0; c < ncol; c++ {
			rows[i][c] = s.t.ValueAt(s.next+i, c)
		}
	}
	s.next += n
	start := time.Now()
	for _, vals := range rows {
		if err := t.AppendRow(vals...); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
