package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// smallCatalog builds a deterministic 3-table mini TPC-H:
//
//	supplier(s_suppkey, s_acctbal)
//	part(p_partkey, p_retailprice, p_size, p_type)
//	partsupp(ps_partkey, ps_suppkey, ps_availqty)
func smallCatalog(t testing.TB, nSupp, nPart int, seed int64) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := data.NewCatalog()

	supp := data.NewTable("supplier", data.MustSchema(
		data.Column{Name: "s_suppkey", Type: data.Int64},
		data.Column{Name: "s_acctbal", Type: data.Float64},
	))
	for i := 0; i < nSupp; i++ {
		if err := supp.AppendRow(data.IntValue(int64(i)), data.FloatValue(rng.Float64()*10000)); err != nil {
			t.Fatal(err)
		}
	}

	types := []string{"STEEL", "BRASS", "COPPER"}
	part := data.NewTable("part", data.MustSchema(
		data.Column{Name: "p_partkey", Type: data.Int64},
		data.Column{Name: "p_retailprice", Type: data.Float64},
		data.Column{Name: "p_size", Type: data.Int64},
		data.Column{Name: "p_type", Type: data.String},
	))
	for i := 0; i < nPart; i++ {
		if err := part.AppendRow(
			data.IntValue(int64(i)),
			data.FloatValue(rng.Float64()*2000),
			data.IntValue(int64(rng.Intn(50))),
			data.StringValue(types[rng.Intn(len(types))]),
		); err != nil {
			t.Fatal(err)
		}
	}

	ps := data.NewTable("partsupp", data.MustSchema(
		data.Column{Name: "ps_partkey", Type: data.Int64},
		data.Column{Name: "ps_suppkey", Type: data.Int64},
		data.Column{Name: "ps_availqty", Type: data.Int64},
	))
	for i := 0; i < nPart; i++ {
		for j := 0; j < 2; j++ {
			if err := ps.AppendRow(
				data.IntValue(int64(i)),
				data.IntValue(int64(rng.Intn(nSupp))),
				data.IntValue(int64(rng.Intn(1000))),
			); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tbl := range []*data.Table{supp, part, ps} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func countQuery(dims ...relq.Dimension) *relq.Query {
	return &relq.Query{
		Tables:     []string{"part"},
		Dims:       dims,
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
}

func TestSingleTableCount(t *testing.T) {
	cat := smallCatalog(t, 10, 200, 1)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 500, Width: 2000,
	})
	p, err := e.Aggregate(q, relq.PrefixRegion([]float64{0}))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	// Oracle: count manually.
	part, _ := cat.Table("part")
	want := int64(0)
	for r := 0; r < part.NumRows(); r++ {
		v, _ := part.NumericAt(r, 1)
		if v <= 500 {
			want++
		}
	}
	if p.Count != want {
		t.Errorf("count = %d, want %d", p.Count, want)
	}

	// Expanding the region grows the count monotonically.
	p2, err := e.Aggregate(q, relq.PrefixRegion([]float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Count < p.Count {
		t.Errorf("expanded count %d < base %d", p2.Count, p.Count)
	}
}

func TestFixedFilters(t *testing.T) {
	cat := smallCatalog(t, 10, 200, 2)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"part"},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "part", Column: "p_size"}, Lo: 10, Hi: 20},
			{Kind: relq.FixedStringIn, Col: relq.ColumnRef{Table: "part", Column: "p_type"}, Values: []string{"STEEL"}},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	p, err := e.Aggregate(q, relq.Region{})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	part, _ := cat.Table("part")
	want := int64(0)
	for r := 0; r < part.NumRows(); r++ {
		sz, _ := part.NumericAt(r, 2)
		ty, _ := part.StringAt(r, 3)
		if sz >= 10 && sz <= 20 && ty == "STEEL" {
			want++
		}
	}
	if p.Count != want {
		t.Errorf("count = %d, want %d", p.Count, want)
	}
}

func TestEquiJoinSum(t *testing.T) {
	cat := smallCatalog(t, 10, 100, 3)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"part", "partsupp"},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_partkey"}},
		},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"}, Bound: 800, Width: 2000},
		},
		Constraint: relq.Constraint{Func: relq.AggSum,
			Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpGE, Target: 1},
	}
	region := relq.PrefixRegion([]float64{5})
	got, err := e.Aggregate(q, region)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	want, err := e.NaiveAggregate(q, region)
	if err != nil {
		t.Fatalf("NaiveAggregate: %v", err)
	}
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("hash join: got count=%d sum=%v, naive count=%d sum=%v",
			got.Count, got.Sum, want.Count, want.Sum)
	}
	if got.Count == 0 {
		t.Error("join produced no tuples; fixture is degenerate")
	}
}

func TestBandJoin(t *testing.T) {
	cat := smallCatalog(t, 40, 40, 4)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"supplier", "part"},
		Dims: []relq.Dimension{
			{Kind: relq.JoinBand,
				Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
				Right: relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	for _, hi := range []float64{0, 1, 3.5, 10} {
		region := relq.PrefixRegion([]float64{hi})
		got, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatalf("Aggregate(hi=%v): %v", hi, err)
		}
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Errorf("band join hi=%v: got %d, naive %d", hi, got.Count, want.Count)
		}
	}
}

func TestCartesianFallback(t *testing.T) {
	cat := smallCatalog(t, 5, 5, 5)
	e := New(cat)
	q := &relq.Query{
		Tables:     []string{"supplier", "part"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	p, err := e.Aggregate(q, relq.Region{})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if p.Count != 25 {
		t.Errorf("cartesian count = %d, want 25", p.Count)
	}
}

func TestMaxIntermediateGuard(t *testing.T) {
	cat := smallCatalog(t, 50, 50, 6)
	e := New(cat)
	e.MaxIntermediate = 100
	q := &relq.Query{
		Tables:     []string{"supplier", "part"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	if _, err := e.Aggregate(q, relq.Region{}); err == nil {
		t.Error("expected intermediate-size error")
	}
}

func TestThreeTableJoin(t *testing.T) {
	cat := smallCatalog(t, 10, 60, 7)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"supplier", "part", "partsupp"},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_suppkey"}},
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_partkey"}},
		},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"}, Bound: 1000, Width: 2000},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "supplier", Column: "s_acctbal"}, Bound: 3000, Width: 10000},
		},
		Constraint: relq.Constraint{Func: relq.AggSum,
			Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpGE, Target: 1},
	}
	for _, scores := range [][]float64{{0, 0}, {5, 0}, {0, 5}, {12.5, 30}} {
		region := relq.PrefixRegion(scores)
		got, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatalf("Aggregate(%v): %v", scores, err)
		}
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-9 {
			t.Errorf("scores %v: got (%d, %v), naive (%d, %v)",
				scores, got.Count, got.Sum, want.Count, want.Sum)
		}
	}
}

// Differential property: Aggregate == NaiveAggregate over random
// queries, regions and aggregates.
func TestDifferentialRandomQueries(t *testing.T) {
	cat := smallCatalog(t, 15, 60, 8)
	e := New(cat)
	rng := rand.New(rand.NewSource(99))

	aggs := []relq.Constraint{
		{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
		{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpGE, Target: 1},
		{Func: relq.AggMax, Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpGE, Target: 1},
		{Func: relq.AggMin, Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpEQ, Target: 1},
		{Func: relq.AggAvg, Attr: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}, Op: relq.CmpEQ, Target: 1},
	}

	for trial := 0; trial < 40; trial++ {
		q := &relq.Query{
			Tables: []string{"part", "partsupp"},
			Fixed: []relq.FixedPred{
				{Kind: relq.FixedEquiJoin,
					Left:  relq.ColumnRef{Table: "part", Column: "p_partkey"},
					Right: relq.ColumnRef{Table: "partsupp", Column: "ps_partkey"}},
			},
			Dims: []relq.Dimension{
				{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
					Bound: rng.Float64() * 2000, Width: 2000},
				{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"},
					Bound: rng.Float64() * 1000, Width: 1000},
			},
			Constraint: aggs[trial%len(aggs)],
		}
		if trial%3 == 0 {
			q.Fixed = append(q.Fixed, relq.FixedPred{
				Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "part", Column: "p_size"},
				Lo: 0, Hi: float64(rng.Intn(50)),
			})
		}
		var region relq.Region
		switch trial % 3 {
		case 0:
			region = relq.PrefixRegion([]float64{rng.Float64() * 30, rng.Float64() * 30})
		case 1:
			region = relq.CellRegion([]int{rng.Intn(4), rng.Intn(4)}, 5)
		default:
			region = relq.SubQueryRegion([]int{1 + rng.Intn(3), 1 + rng.Intn(3)}, 1+rng.Intn(3), 4)
		}
		got, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatalf("trial %d: Aggregate: %v", trial, err)
		}
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatalf("trial %d: NaiveAggregate: %v", trial, err)
		}
		if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-6 ||
			got.Min != want.Min || got.Max != want.Max {
			t.Errorf("trial %d region %v:\n got  %+v\n want %+v", trial, region, got, want)
		}
	}
}

func TestGridIndexSkipsEmptyCells(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 9)
	e := New(cat)
	if err := e.BuildGridIndex("part", []string{"p_retailprice"}, 32); err != nil {
		t.Fatalf("BuildGridIndex: %v", err)
	}
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 2500, Width: 2000, // bound beyond domain max: every expansion region is empty
	})
	e.ResetStats()
	p, err := e.Aggregate(q, relq.CellRegion([]int{3}, 5))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if p.Count != 0 {
		t.Errorf("count = %d, want 0", p.Count)
	}
	st := e.Snapshot()
	if st.CellsSkipped != 1 {
		t.Errorf("CellsSkipped = %d, want 1", st.CellsSkipped)
	}
	if st.RowsScanned != 0 {
		t.Errorf("RowsScanned = %d, want 0 (skip must avoid the scan)", st.RowsScanned)
	}

	// Index answers must agree with the naive oracle on occupied cells.
	q2 := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 500, Width: 2000,
	})
	for u := 0; u < 8; u++ {
		region := relq.CellRegion([]int{u}, 5)
		got, err := e.Aggregate(q2, region)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.NaiveAggregate(q2, region)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Errorf("cell u=%d: indexed %d, naive %d", u, got.Count, want.Count)
		}
	}
	e.DropGridIndex("part")
}

func TestViolationScan(t *testing.T) {
	cat := smallCatalog(t, 10, 50, 10)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 1000, Width: 2000,
	})
	rows, err := e.ViolationScan(q)
	if err != nil {
		t.Fatalf("ViolationScan: %v", err)
	}
	part, _ := cat.Table("part")
	if len(rows) != part.NumRows() {
		t.Errorf("rows = %d, want %d", len(rows), part.NumRows())
	}
	for _, rv := range rows {
		v, _ := part.NumericAt(int(rv.Row), 1)
		want := 0.0
		if v > 1000 {
			want = (v - 1000) / 2000 * 100
		}
		if math.Abs(rv.Viol[0]-want) > 1e-9 {
			t.Fatalf("row %d viol = %v, want %v", rv.Row, rv.Viol[0], want)
		}
		if rv.AggValue != 1 {
			t.Fatalf("COUNT(*) agg value = %v", rv.AggValue)
		}
	}

	// Join queries are rejected.
	qj := &relq.Query{
		Tables:     []string{"part", "partsupp"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	if _, err := e.ViolationScan(qj); err == nil {
		t.Error("multi-table ViolationScan: expected error")
	}
}

func TestBindErrors(t *testing.T) {
	cat := smallCatalog(t, 5, 5, 11)
	e := New(cat)
	region := relq.Region{}
	cases := []*relq.Query{
		{Tables: []string{"nosuch"}, Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
		{Tables: []string{"part"},
			Dims:       []relq.Dimension{{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "nocol"}, Bound: 1, Width: 1}},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
		{Tables: []string{"part"},
			Dims:       []relq.Dimension{{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "ghost", Column: "x"}, Bound: 1, Width: 1}},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
		{Tables: []string{"part"},
			Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "part", Column: "p_type"}, Op: relq.CmpGE, Target: 1}},
		{Tables: []string{"part"},
			Fixed:      []relq.FixedPred{{Kind: relq.FixedStringIn, Col: relq.ColumnRef{Table: "part", Column: "p_size"}, Values: []string{"x"}}},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
	}
	for i, q := range cases {
		r := region
		if len(q.Dims) == 1 {
			r = relq.PrefixRegion([]float64{1})
		}
		if _, err := e.Aggregate(q, r); err == nil {
			t.Errorf("case %d: expected bind error", i)
		}
	}

	// Region arity mismatch.
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 1000, Width: 2000,
	})
	if _, err := e.Aggregate(q, relq.Region{}); err == nil {
		t.Error("region arity mismatch: expected error")
	}
	if _, err := e.NaiveAggregate(q, relq.Region{}); err == nil {
		t.Error("naive region arity mismatch: expected error")
	}
}

// TestUnknownDimKindRejected checks that a dimension whose kind is
// unset or unknown is a bind error on every entry point — the engine
// never answers a query with a dimension it cannot evaluate.
func TestUnknownDimKindRejected(t *testing.T) {
	cat := smallCatalog(t, 5, 5, 11)
	e := New(cat)
	for _, kind := range []relq.DimKind{0, relq.JoinBand + 1, 255} {
		q := countQuery(
			relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"}, Bound: 1000, Width: 2000},
			relq.Dimension{Kind: kind, Col: relq.ColumnRef{Table: "part", Column: "p_size"}, Bound: 10, Width: 50},
		)
		region := relq.PrefixRegion([]float64{5, 5})
		if _, err := e.Aggregate(q, region); err == nil {
			t.Errorf("kind %d: Aggregate accepted the query", kind)
		}
		if _, err := e.AggregateBatch(context.Background(), q, []relq.Region{region}); err == nil {
			t.Errorf("kind %d: AggregateBatch accepted the query", kind)
		}
		if _, err := e.NaiveAggregate(q, region); err == nil {
			t.Errorf("kind %d: NaiveAggregate accepted the query", kind)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cat := smallCatalog(t, 5, 50, 12)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 1000, Width: 2000,
	})
	e.ResetStats()
	for i := 0; i < 3; i++ {
		if _, err := e.Aggregate(q, relq.PrefixRegion([]float64{0})); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Snapshot()
	if st.Queries != 3 {
		t.Errorf("Queries = %d, want 3", st.Queries)
	}
	// With the sorted-index access path, each selective query touches
	// only the driving range's rows — strictly fewer than 3 full scans.
	if st.RowsScanned <= 0 || st.RowsScanned >= 150 {
		t.Errorf("RowsScanned = %d, want in (0, 150)", st.RowsScanned)
	}
	// The index path and a full scan must agree on the result.
	p1, err := e.Aggregate(q, relq.PrefixRegion([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.NaiveAggregate(q, relq.PrefixRegion([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Count != p2.Count {
		t.Errorf("index path count %d != naive %d", p1.Count, p2.Count)
	}
}

func TestAggregateEmptyRegionShortCircuit(t *testing.T) {
	cat := smallCatalog(t, 5, 50, 13)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 1000, Width: 2000,
	})
	p, err := e.Aggregate(q, relq.Region{{Lo: 5, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 0 {
		t.Errorf("empty region count = %d", p.Count)
	}
}

func TestSpecPartialThroughEngine(t *testing.T) {
	cat := smallCatalog(t, 5, 50, 14)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"part"},
		Constraint: relq.Constraint{Func: relq.AggAvg,
			Attr: relq.ColumnRef{Table: "part", Column: "p_retailprice"}, Op: relq.CmpEQ, Target: 1},
	}
	p, err := e.Aggregate(q, relq.Region{})
	if err != nil {
		t.Fatal(err)
	}
	spec := agg.Spec{Func: relq.AggAvg}
	got := spec.Final(p)
	part, _ := cat.Table("part")
	sum := 0.0
	for r := 0; r < part.NumRows(); r++ {
		v, _ := part.NumericAt(r, 1)
		sum += v
	}
	want := sum / float64(part.NumRows())
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AVG = %v, want %v", got, want)
	}
}

// Differential property over the full dimension vocabulary: EQ bands,
// GE bounds and coefficient band-joins mixed in one query, random
// regions, indexed vs naive execution.
func TestDifferentialMixedDimKinds(t *testing.T) {
	cat := smallCatalog(t, 20, 80, 61)
	e := New(cat)
	rng := rand.New(rand.NewSource(113))

	for trial := 0; trial < 30; trial++ {
		q := &relq.Query{
			Tables: []string{"supplier", "part"},
			Dims: []relq.Dimension{
				{Kind: relq.JoinBand,
					Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
					Right: relq.ColumnRef{Table: "part", Column: "p_partkey"},
					LCoef: float64(1 + trial%2), RCoef: 1,
					Width: 100},
				{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "part", Column: "p_size"},
					Bound: float64(rng.Intn(50)), Width: 100},
				{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "supplier", Column: "s_acctbal"},
					Bound: rng.Float64() * 10000, Width: 10000},
			},
			Constraint: relq.Constraint{Func: relq.AggSum,
				Attr: relq.ColumnRef{Table: "part", Column: "p_retailprice"}, Op: relq.CmpGE, Target: 1},
		}
		var region relq.Region
		switch trial % 3 {
		case 0:
			region = relq.PrefixRegion([]float64{rng.Float64() * 20, rng.Float64() * 10, rng.Float64() * 40})
		case 1:
			region = relq.CellRegion([]int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}, 4)
		default:
			region = relq.SubQueryRegion([]int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)}, 1+rng.Intn(4), 3)
		}
		got, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-6*(1+math.Abs(want.Sum)) {
			t.Errorf("trial %d region %v: got (%d, %v), naive (%d, %v)",
				trial, region, got.Count, got.Sum, want.Count, want.Sum)
		}
	}
}

// The incremental decomposition is exact for mixed dimension kinds too:
// summing all cells of a prefix equals the prefix aggregate.
func TestCellSumEqualsPrefixMixedKinds(t *testing.T) {
	cat := smallCatalog(t, 15, 60, 62)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"supplier", "part"},
		Dims: []relq.Dimension{
			{Kind: relq.JoinBand,
				Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
				Right: relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Width: 100},
			{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "part", Column: "p_size"},
				Bound: 25, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	const step = 3.0
	u := []int{3, 4}
	total := agg.Zero()
	for a := 0; a <= u[0]; a++ {
		for b := 0; b <= u[1]; b++ {
			p, err := e.Aggregate(q, relq.CellRegion([]int{a, b}, step))
			if err != nil {
				t.Fatal(err)
			}
			total = agg.Merge(total, p)
		}
	}
	prefix, err := e.Aggregate(q, relq.PrefixRegion([]float64{float64(u[0]) * step, float64(u[1]) * step}))
	if err != nil {
		t.Fatal(err)
	}
	if total.Count != prefix.Count {
		t.Errorf("cell sum %d != prefix %d", total.Count, prefix.Count)
	}
}
