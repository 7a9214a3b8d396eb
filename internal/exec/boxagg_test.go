package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/index"
	"acquire/internal/relq"
	"acquire/internal/tpch"
)

// usersQuery builds a single-table users ACQ with the given dims and
// constraint spec.
func usersQuery(f relq.AggFunc, attr string, dims ...relq.Dimension) *relq.Query {
	c := relq.Constraint{Func: f, Op: relq.CmpEQ, Target: 1}
	if attr != "" {
		c.Attr = relq.ColumnRef{Table: "users", Column: attr}
	}
	return &relq.Query{Tables: []string{"users"}, Dims: dims, Constraint: c}
}

func usersDims() []relq.Dimension {
	return []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "users", Column: "distance"}, Bound: 60, Width: 100},
	}
}

// TestBoxKernelMatchesScan is the property test of the box-aggregate
// kernel: across randomized regions and COUNT/SUM/MIN/MAX constraints,
// an engine answering through the aggregate grid must agree with a
// grid-less engine running the scan path — COUNT partials bit for bit,
// SUM within float re-association tolerance (the kernel merges
// cell-order partials, the scan folds row chunks).
func TestBoxKernelMatchesScan(t *testing.T) {
	const rows = 5000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	cols := []string{"age", "income", "distance"}
	if err := kern.BuildGridAggIndex("users", cols, []string{"spend"}, index.BinsForRows(3, rows)); err != nil {
		t.Fatal(err)
	}

	dims := usersDims()
	queries := []*relq.Query{
		usersQuery(relq.AggCount, "", dims...),
		usersQuery(relq.AggSum, "spend", dims...),
		usersQuery(relq.AggMin, "spend", dims...),
		usersQuery(relq.AggMax, "spend", dims...),
	}

	rng := rand.New(rand.NewSource(99))
	randRegion := func() relq.Region {
		r := make(relq.Region, len(dims))
		for i := range r {
			hi := rng.Float64() * 80
			if rng.Intn(2) == 0 {
				r[i] = relq.ViolInterval{Lo: -1, Hi: hi} // prefix
			} else {
				r[i] = relq.ViolInterval{Lo: hi * rng.Float64(), Hi: hi} // cell-style band
			}
		}
		return r
	}

	before := kern.Snapshot()
	nonzero := 0
	for trial := 0; trial < 120; trial++ {
		region := randRegion()
		for _, q := range queries {
			want, err := scan.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			got, err := kern.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("trial %d %v region %v:\nkernel %+v\nscan   %+v",
					trial, q.Constraint.Func, region, got, want)
			}
			if !agg.ApproxEqual(got, want, 1e-9) {
				t.Fatalf("trial %d %v region %v: sum diverged\nkernel %+v\nscan   %+v",
					trial, q.Constraint.Func, region, got, want)
			}
			if q.Constraint.Func == relq.AggCount && got.Sum != want.Sum {
				t.Fatalf("trial %d COUNT sum not bit-identical: %v vs %v", trial, got.Sum, want.Sum)
			}
			spec, err := agg.SpecFor(q.Constraint)
			if err != nil {
				t.Fatal(err)
			}
			gf, wf := spec.Final(got), spec.Final(want)
			if gf != wf && !(math.IsNaN(gf) && math.IsNaN(wf)) &&
				math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf)) {
				t.Fatalf("trial %d: Final %v vs %v", trial, gf, wf)
			}
			if want.Count > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("property test never produced a non-empty region — workload bug")
	}
	d := kern.Snapshot().Sub(before)
	if d.CellsMerged == 0 {
		t.Errorf("kernel never merged interior cells (CellsMerged = 0)")
	}
	if d.BoundaryRows == 0 {
		t.Errorf("kernel never scanned boundary rows (BoundaryRows = 0)")
	}
	if ds := scan.Snapshot(); ds.CellsMerged != 0 || ds.BoundaryRows != 0 {
		t.Errorf("grid-less engine used the kernel: %+v", ds)
	}
}

// TestBoxKernelSelectEQ covers the V-shaped kind: a single band
// (Lo <= 0) is kernel-eligible; a split band (Lo > 0) falls back to the
// scan path. Both must agree with the grid-less engine.
func TestBoxKernelSelectEQ(t *testing.T) {
	const rows = 3000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	if err := kern.BuildGridAggIndex("users", []string{"age", "income"}, nil, 40); err != nil {
		t.Fatal(err)
	}
	q := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 45, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 100000, Width: 180000},
	)

	single := relq.Region{{Lo: -1, Hi: 30}, {Lo: -1, Hi: 20}}
	split := relq.Region{{Lo: 10, Hi: 30}, {Lo: -1, Hi: 20}}
	for name, region := range map[string]relq.Region{"single-band": single, "split-band": split} {
		want, err := scan.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		before := kern.Snapshot()
		got, err := kern.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("%s: count %d, want %d", name, got.Count, want.Count)
		}
		d := kern.Snapshot().Sub(before)
		engaged := d.CellsMerged+d.BoundaryRows > 0
		if name == "split-band" && engaged {
			t.Errorf("split SelectEQ band must fall back to the scan path, got %+v", d)
		}
	}
}

// TestBoxKernelFallback: joins, UDAs, fixed predicates and unindexed
// dimensions must bypass the kernel and still return scan-path results.
func TestBoxKernelFallback(t *testing.T) {
	const rows = 2000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	if err := kern.BuildGridAggIndex("users", []string{"age", "income"}, nil, 32); err != nil {
		t.Fatal(err)
	}
	region := relq.Region{{Lo: -1, Hi: 25}, {Lo: -1, Hi: 25}}

	fixed := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
	)
	fixed.Fixed = []relq.FixedPred{{
		Kind:   relq.FixedStringIn,
		Col:    relq.ColumnRef{Table: "users", Column: "gender"},
		Values: []string{"Women"},
	}}
	unindexed := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "sessions"}, Bound: 20, Width: 50},
	)
	aggUnindexed := usersQuery(relq.AggSum, "spend",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
	) // spend not materialized in this grid

	for name, q := range map[string]*relq.Query{
		"fixed-pred": fixed, "unindexed-dim": unindexed, "unmaterialized-agg": aggUnindexed,
	} {
		want, err := scan.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		before := kern.Snapshot()
		got, err := kern.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: kernel-engine %+v, scan-engine %+v", name, got, want)
		}
		if d := kern.Snapshot().Sub(before); d.CellsMerged != 0 || d.BoundaryRows != 0 {
			t.Errorf("%s: kernel engaged on ineligible query: %+v", name, d)
		}
	}
}

// TestBuildGridAggIdempotent: rebuilding with the same shape keeps the
// registered grid; a different shape replaces it.
func TestBuildGridAggIdempotent(t *testing.T) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	if err := e.BuildGridAggIndex("users", []string{"age", "income"}, []string{"spend"}, 16); err != nil {
		t.Fatal(err)
	}
	users, err := cat.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	g1 := e.grid("users", users)
	if err := e.BuildGridAggIndex("users", []string{"AGE", "Income"}, []string{"SPEND"}, 16); err != nil {
		t.Fatal(err)
	}
	if e.grid("users", users) != g1 {
		t.Error("same-shape rebuild replaced the grid")
	}
	if err := e.BuildGridAggIndex("users", []string{"age"}, nil, 16); err != nil {
		t.Fatal(err)
	}
	if e.grid("users", users) == g1 {
		t.Error("different-shape rebuild kept the old grid")
	}
}

// TestBoundaryZoneSkip covers the zone-consulting boundary-cell walk:
// on a clustered layout, a boundary cell's posting list is cut into
// per-block runs and runs whose blocks provably miss the pruned value
// hull are skipped outright. Every skipped run is at least one posting
// row the walk never gathers (the saving BlocksSkipped accounts for),
// while every partial still matches NaiveAggregate — the per-row keep
// test enforces both interval sides, so a skipped run can only hold
// rows the filter would reject anyway.
func TestBoundaryZoneSkip(t *testing.T) {
	const n = 20 * blockRows
	cat := clusteredCatalog(t, n) // events(val sorted 0..1000, spend)
	e := New(cat)
	// 8 bins over 20 blocks: each cell spans ~2.5 physical blocks, so a
	// violation hull cutting mid-cell leaves whole out-of-range blocks
	// inside boundary cells for the zone test to drop.
	if err := e.BuildGridAggIndex("events", []string{"val"}, []string{"spend"}, 8); err != nil {
		t.Fatal(err)
	}

	dims := []relq.Dimension{{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "val"},
		Bound: 200, Width: 300,
	}}
	queries := []*relq.Query{
		{Tables: []string{"events"}, Dims: dims,
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
		{Tables: []string{"events"}, Dims: dims,
			Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "events", Column: "spend"}, Op: relq.CmpEQ, Target: 1}},
	}
	// Bands with Lo > 0 exercise the two-sided hull; prefix regions the
	// one-sided one.
	regions := []relq.Region{
		{{Lo: -1, Hi: 30}}, {{Lo: -1, Hi: 75}},
		{{Lo: 10, Hi: 40}}, {{Lo: 33.3, Hi: 66.6}}, {{Lo: 0, Hi: 5}},
	}

	before := e.Snapshot()
	for qi, q := range queries {
		for ri, region := range regions {
			p, err := e.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.NaiveAggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			naiveEqual(t, fmt.Sprintf("boundary query %d region %d", qi, ri), p, want)
		}
	}
	d := e.Snapshot().Sub(before)

	if d.BoundaryRows == 0 {
		t.Fatalf("expected boundary-cell work: %+v", d)
	}
	if d.BlocksSkipped == 0 {
		t.Fatalf("zone-consulting walk skipped no posting runs: %+v", d)
	}
	// The kernel (not the scan) answered: cells merged.
	if d.CellsMerged == 0 {
		t.Fatalf("grid kernel not engaged: %+v", d)
	}
}

// TestStaleGridRetired checks that a registered grid stops answering
// once its table has grown or been replaced: the bitmap grid's
// emptiness proof and the aggregate grid's stored partials and posting
// lists describe the build-time rows only, so after 5,000 appends to
// 20K users — and after a same-size catalog Replace of a rebuilt grid
// — every answer must still match NaiveAggregate.
func TestStaleGridRetired(t *testing.T) {
	cols := []string{"age", "income", "distance"}
	queries := []*relq.Query{
		usersQuery(relq.AggCount, "", usersDims()...),
		usersQuery(relq.AggSum, "spend", usersDims()...),
	}
	// A broad prefix region, and an age band above the generated
	// domain that only the appended rows reach (age 40 + 62·[150,200]%).
	regions := []relq.Region{
		relq.PrefixRegion([]float64{200, 200, 200}),
		{{Lo: 150, Hi: 200}, {Lo: -1, Hi: 200}, {Lo: -1, Hi: 200}},
	}
	for _, aggGrid := range []bool{false, true} {
		cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 20000, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		e := New(cat)
		build := func() {
			t.Helper()
			var err error
			if aggGrid {
				err = e.BuildGridAggIndex("users", cols, []string{"spend"}, 16)
			} else {
				err = e.BuildGridIndex("users", cols, 16)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) Stats {
			t.Helper()
			before := e.Snapshot()
			for qi, q := range queries {
				for ri, region := range regions {
					got, err := e.Aggregate(q, region)
					if err != nil {
						t.Fatal(err)
					}
					want, err := e.NaiveAggregate(q, region)
					if err != nil {
						t.Fatal(err)
					}
					naiveEqual(t, fmt.Sprintf("agg grid=%v %s q=%d region=%d", aggGrid, stage, qi, ri), got, want)
				}
			}
			return e.Snapshot().Sub(before)
		}

		build()
		if d := check("fresh"); d.CellsSkipped+d.CellsMerged == 0 {
			t.Fatalf("agg grid=%v: fresh grid never answered: %+v", aggGrid, d)
		}

		// 5,000 appended copies of existing rows, aged past the domain.
		tbl, err := cat.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		ageOrd := tbl.Schema().Ordinal("age")
		vals := make([]data.Value, len(tbl.Schema().Columns))
		for r := 0; r < 5000; r++ {
			for c := range vals {
				vals[c] = tbl.ValueAt(r, c)
			}
			vals[ageOrd] = data.IntValue(vals[ageOrd].I + 100)
			if err := tbl.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
		}
		check("after appends")

		// Rebuild, then swap in a reversed copy with the same row count:
		// only the table identity tells the grid's row ids are stale.
		build()
		rev := data.NewTable("users", tbl.Schema())
		for r := tbl.NumRows() - 1; r >= 0; r-- {
			for c := range vals {
				vals[c] = tbl.ValueAt(r, c)
			}
			if err := rev.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
		}
		cat.Replace(rev)
		check("after replace")
	}
}
