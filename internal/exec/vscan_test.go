package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
	"acquire/internal/tpch"
)

// This file holds the scan-path equivalence property suite: the block
// scan path must agree with NaiveAggregate — the exhaustive nested-loop
// oracle — across aggregates, joins, fixed predicates, NaN/±Inf
// columns, tail blocks, shard counts, cache configurations and table
// mutations. COUNT, MIN and MAX must be bit-identical (any row loss or
// extra row shows up there), except that a zero extreme may differ in
// sign: the first zero folded wins, and the oracle's nested loops visit
// join tuples in another order than the engine. SUM and UDA sums may
// differ from the oracle's fold only by float association.

// exactEqual fails unless two partials are bitwise identical.
func exactEqual(t *testing.T, label string, got, want agg.Partial) {
	t.Helper()
	if got.Count != want.Count ||
		math.Float64bits(got.Sum) != math.Float64bits(want.Sum) ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(want.Max) ||
		math.Float64bits(got.User) != math.Float64bits(want.User) {
		t.Fatalf("%s: got %+v, want bitwise %+v", label, got, want)
	}
}

// naiveEqual fails unless an engine partial agrees with the
// NaiveAggregate oracle: Count exactly, Min and Max bitwise (up to the
// sign of a zero), Sum and User equal (NaN matching NaN, an infinity
// matching itself) or within agg.ApproxEqual's relative tolerance.
func naiveEqual(t *testing.T, label string, got, want agg.Partial) {
	t.Helper()
	extreme := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || x == 0 && y == 0
	}
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	if got.Count != want.Count || !extreme(got.Min, want.Min) || !extreme(got.Max, want.Max) ||
		!(same(got.Sum, want.Sum) && same(got.User, want.User)) && !agg.ApproxEqual(got, want, 1e-9) {
		t.Fatalf("%s: engine %+v != NaiveAggregate %+v", label, got, want)
	}
}

// messyCatalog builds a two-table catalog engineered to stress the scan
// path's edge cases: a NaN/±Inf-bearing aggregate column, ±0 join keys,
// a string filter column, dangling join keys, and row counts chosen by
// the caller to produce partial tail blocks.
//
//	cust(c_key, c_score)
//	orders(o_custkey, o_amount [NaN/±Inf/±0], o_qty, o_status)
func messyCatalog(t testing.TB, nOrders, nCust int, seed int64) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := data.NewCatalog()

	cust := data.NewTable("cust", data.MustSchema(
		data.Column{Name: "c_key", Type: data.Int64},
		data.Column{Name: "c_score", Type: data.Float64},
	))
	for i := 0; i < nCust; i++ {
		if err := cust.AppendRow(data.IntValue(int64(i)), data.FloatValue(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}

	statuses := []string{"OPEN", "SHIPPED", "CLOSED", "HELD"}
	orders := data.NewTable("orders", data.MustSchema(
		data.Column{Name: "o_custkey", Type: data.Int64},
		data.Column{Name: "o_amount", Type: data.Float64},
		data.Column{Name: "o_qty", Type: data.Float64},
		data.Column{Name: "o_status", Type: data.String},
	))
	for i := 0; i < nOrders; i++ {
		amount := rng.Float64() * 1000
		switch r := rng.Float64(); {
		case r < 0.02:
			amount = math.NaN()
		case r < 0.03:
			amount = math.Inf(1)
		case r < 0.04:
			amount = math.Inf(-1)
		case r < 0.06:
			amount = math.Copysign(0, rng.Float64()-0.5) // ±0 keys
		}
		// ~10% dangling keys exercise join misses.
		key := int64(rng.Intn(nCust + nCust/10 + 1))
		if err := orders.AppendRow(
			data.IntValue(key),
			data.FloatValue(amount),
			data.FloatValue(rng.Float64()*50),
			data.StringValue(statuses[rng.Intn(len(statuses))]),
		); err != nil {
			t.Fatal(err)
		}
	}

	for _, tbl := range []*data.Table{cust, orders} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// messyAgg picks a random constraint over the messy catalog. The
// NaN/±Inf column o_amount is deliberately over-represented as the
// aggregate attribute.
func messyAgg(rng *rand.Rand) relq.Constraint {
	c := relq.Constraint{Op: relq.CmpEQ, Target: 1}
	attr := relq.ColumnRef{Table: "orders", Column: "o_amount"}
	if rng.Intn(3) == 0 {
		attr = relq.ColumnRef{Table: "orders", Column: "o_qty"}
	}
	switch rng.Intn(6) {
	case 0:
		c.Func = relq.AggCount
	case 1:
		c.Func, c.Attr = relq.AggSum, attr
	case 2:
		c.Func, c.Attr = relq.AggMin, attr
	case 3:
		c.Func, c.Attr = relq.AggMax, attr
	case 4:
		c.Func, c.Attr = relq.AggAvg, attr
	default:
		c.Func, c.Attr, c.UserName = relq.AggUser, attr, "SUMSQ"
	}
	return c
}

// messyQuery generates a random (query, region) pair: single-table
// selects, equi joins, band joins, fixed ranges (selective enough to
// trigger the index path about half the time) and string-set filters.
func messyQuery(rng *rand.Rand) (*relq.Query, relq.Region) {
	var dims []relq.Dimension
	var fixed []relq.FixedPred
	tables := []string{"orders"}

	// 1-2 select dims on orders.
	orderDims := []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 400, Width: 1000},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 30, Width: 50},
		{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 20, Width: 50},
	}
	rng.Shuffle(len(orderDims), func(i, j int) { orderDims[i], orderDims[j] = orderDims[j], orderDims[i] })
	dims = append(dims, orderDims[:1+rng.Intn(2)]...)

	switch rng.Intn(3) {
	case 1: // equi join to cust + a cust-side dim
		tables = append(tables, "cust")
		fixed = append(fixed, relq.FixedPred{
			Kind:  relq.FixedEquiJoin,
			Left:  relq.ColumnRef{Table: "orders", Column: "o_custkey"},
			Right: relq.ColumnRef{Table: "cust", Column: "c_key"},
		})
		dims = append(dims, relq.Dimension{
			Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "cust", Column: "c_score"},
			Bound: 30, Width: 100,
		})
	case 2: // band join on the NaN-bearing column
		tables = append(tables, "cust")
		dims = append(dims, relq.Dimension{
			Kind:  relq.JoinBand,
			Left:  relq.ColumnRef{Table: "orders", Column: "o_amount"},
			Right: relq.ColumnRef{Table: "cust", Column: "c_score"},
			Base:  5, Width: 200,
		})
	}

	if rng.Intn(2) == 0 { // fixed range; selective half the time
		lo, hi := 100.0, 900.0
		if rng.Intn(2) == 0 {
			lo, hi = 100.0, 250.0
		}
		fixed = append(fixed, relq.FixedPred{
			Kind: relq.FixedRange,
			Col:  relq.ColumnRef{Table: "orders", Column: "o_amount"},
			Lo:   lo, Hi: hi,
		})
	}
	if rng.Intn(3) == 0 {
		fixed = append(fixed, relq.FixedPred{
			Kind:   relq.FixedStringIn,
			Col:    relq.ColumnRef{Table: "orders", Column: "o_status"},
			Values: []string{"OPEN", "SHIPPED"},
		})
	}

	region := make(relq.Region, len(dims))
	for i := range region {
		hi := rng.Float64() * 90
		if rng.Intn(2) == 0 {
			region[i] = relq.ViolInterval{Lo: -1, Hi: hi}
		} else {
			region[i] = relq.ViolInterval{Lo: hi * rng.Float64(), Hi: hi}
		}
	}

	q := &relq.Query{Tables: tables, Dims: dims, Fixed: fixed, Constraint: messyAgg(rng)}
	return q, region
}

func registerUDAs(t testing.TB) {
	t.Helper()
	for _, u := range agg.StandardUDAs() {
		_ = agg.RegisterUDA(u) // duplicate registration across tests is fine
	}
}

// TestVectorLegacyEquivalence runs 160 randomized (query, region, agg)
// triples — COUNT/SUM/MIN/MAX/AVG plus a UDA, equi and band joins,
// fixed ranges, string sets, NaN/±Inf aggregate values — through the
// engine and NaiveAggregate and requires agreeing partials.
func TestVectorLegacyEquivalence(t *testing.T) {
	registerUDAs(t)
	cat := messyCatalog(t, 2500, 300, 7)
	e := New(cat)

	rng := rand.New(rand.NewSource(41))
	nonzero := 0
	for trial := 0; trial < 160; trial++ {
		q, region := messyQuery(rng)
		pv, errV := e.Aggregate(q, region)
		pn, errN := e.NaiveAggregate(q, region)
		if (errV != nil) != (errN != nil) {
			t.Fatalf("trial %d: error divergence: engine=%v naive=%v", trial, errV, errN)
		}
		if errV != nil {
			continue
		}
		naiveEqual(t, fmt.Sprintf("trial %d (%v, region %v)", trial, q.Tables, region), pv, pn)
		if pv.Count > 0 {
			nonzero++
		}
	}
	if nonzero < 40 {
		t.Fatalf("only %d/160 trials produced rows; generator too restrictive to be meaningful", nonzero)
	}
}

// TestVectorLegacyEquivalenceTailBlocks sweeps table sizes around the
// block boundary — empty tables, single rows, exactly one block, one
// block plus one row — where off-by-one block math would bite.
func TestVectorLegacyEquivalenceTailBlocks(t *testing.T) {
	registerUDAs(t)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 16, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 511} {
		cat := messyCatalog(t, n, 50, int64(n))
		e := New(cat)
		for trial := 0; trial < 8; trial++ {
			q, region := messyQuery(rng)
			pv, errV := e.Aggregate(q, region)
			pn, errN := e.NaiveAggregate(q, region)
			if (errV != nil) != (errN != nil) {
				t.Fatalf("n=%d trial %d: error divergence: %v vs %v", n, trial, errV, errN)
			}
			if errV != nil {
				continue
			}
			naiveEqual(t, fmt.Sprintf("n=%d trial %d", n, trial), pv, pn)
		}
	}
}

// TestVectorLegacyEquivalenceSharded drives the sweep through
// ShardedEvaluators at shard counts 1-16 with the region cache on and
// off, against NaiveAggregate over the unsharded catalog. A cached
// re-execution must serve bit-identical partials.
func TestVectorLegacyEquivalenceSharded(t *testing.T) {
	const rows = 3000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dims := usersDims()
	queries := []*relq.Query{
		usersQuery(relq.AggCount, "", dims...),
		usersQuery(relq.AggSum, "spend", dims...),
		usersQuery(relq.AggMin, "spend", dims...),
		usersQuery(relq.AggMax, "spend", dims...),
		usersQuery(relq.AggAvg, "spend", dims...),
	}

	oracle := New(cat)
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 5, 16} {
		for _, cache := range []bool{false, true} {
			vec := newShardedUsers(t, cat, shards, shardCfg{cache: cache})

			regions := make([]relq.Region, 6)
			for i := range regions {
				hi := rng.Float64() * 80
				lo := -1.0
				if i%2 == 1 {
					lo = hi * rng.Float64()
				}
				regions[i] = relq.Region{
					{Lo: lo, Hi: hi},
					{Lo: -1, Hi: rng.Float64() * 80},
					{Lo: -1, Hi: rng.Float64() * 80},
				}
			}
			for qi, q := range queries {
				pv, err := vec.AggregateBatch(ctx, q, regions)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pv {
					want, err := oracle.NaiveAggregate(q, regions[i])
					if err != nil {
						t.Fatal(err)
					}
					naiveEqual(t, fmt.Sprintf("shards=%d cache=%v q=%d region=%d", shards, cache, qi, i), pv[i], want)
				}
				if cache {
					// Cached re-execution must serve identical partials.
					pv2, err := vec.AggregateBatch(ctx, q, regions)
					if err != nil {
						t.Fatal(err)
					}
					for i := range pv2 {
						exactEqual(t, fmt.Sprintf("shards=%d cached-rerun q=%d region=%d", shards, qi, i), pv2[i], pv[i])
					}
				}
			}
		}
	}
}

// clusteredCatalog builds a single-table catalog whose value column is
// sorted — the layout where zone maps can prove whole blocks out of
// range. val runs 0..1000 ascending.
func clusteredCatalog(t testing.TB, n int) *data.Catalog {
	t.Helper()
	cat := data.NewCatalog()
	tbl := data.NewTable("events", data.MustSchema(
		data.Column{Name: "val", Type: data.Float64},
		data.Column{Name: "spend", Type: data.Float64},
	))
	for i := 0; i < n; i++ {
		v := 1000 * float64(i) / float64(n)
		if err := tbl.AppendRow(data.FloatValue(v), data.FloatValue(math.Sqrt(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestVectorZoneSkip verifies the zone-map fast path: on a clustered
// column, a broad fixed range (too wide for the index path, narrow
// enough to exclude whole blocks) must skip blocks without touching
// their rows, RowsScanned must exclude the skipped rows, and the result
// must still match NaiveAggregate.
func TestVectorZoneSkip(t *testing.T) {
	const n = 20 * blockRows
	cat := clusteredCatalog(t, n)
	vec := New(cat)

	q := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{{
			Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"},
			Bound: 20, Width: 30,
		}},
		Fixed: []relq.FixedPred{{
			Kind: relq.FixedRange,
			Col:  relq.ColumnRef{Table: "events", Column: "val"},
			// 60% of the sorted domain: > n/2 matches, so the index path
			// is rejected and the full scan runs with zone pruning.
			Lo: 0, Hi: 600,
		}},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "events", Column: "spend"}, Op: relq.CmpEQ, Target: 1},
	}
	region := relq.PrefixRegion([]float64{100})

	before := vec.Snapshot()
	pv, err := vec.Aggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	d := vec.Snapshot().Sub(before)
	pn, err := vec.NaiveAggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	naiveEqual(t, "zone-skip query", pv, pn)

	if d.BlocksSkipped == 0 {
		t.Fatalf("expected zone maps to skip blocks on clustered data; stats: %+v", d)
	}
	if d.BlocksScanned == 0 {
		t.Fatalf("expected some blocks scanned; stats: %+v", d)
	}
	if d.RowsScanned >= int64(n) {
		t.Fatalf("RowsScanned %d should exclude rows in the %d skipped blocks (n=%d)", d.RowsScanned, d.BlocksSkipped, n)
	}
	if got := d.RowsScanned + d.BlocksSkipped*blockRows; got != int64(n) {
		t.Fatalf("scanned rows (%d) + skipped rows (%d blocks) should cover the table: got %d, want %d",
			d.RowsScanned, d.BlocksSkipped, got, n)
	}
}

// foldViolationRows steps the rows of a ViolationScan whose violation
// vectors lie inside region into a partial, in emitted order — the
// Top-k baseline's view of one refined query.
func foldViolationRows(t *testing.T, q *relq.Query, rows []RowViolations, region relq.Region) agg.Partial {
	t.Helper()
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		t.Fatal(err)
	}
	p := agg.Zero()
	for _, r := range rows {
		if region.Contains(r.Viol) {
			spec.StepValue(&p, r.AggValue)
		}
	}
	return p
}

// TestViolationScanEquivalence checks the Top-k primitive row by row:
// rows ascend, every violation vector and aggregate value is
// bit-identical to the row's own column values, and folding the rows
// inside a region reproduces NaiveAggregate on that region — so no row
// passing the fixed filters is lost or invented. On a clustered layout
// the scan must skip blocks while still emitting every such row.
func TestViolationScanEquivalence(t *testing.T) {
	cat := messyCatalog(t, 3*blockRows+100, 50, 23)
	e := New(cat)

	q := &relq.Query{
		Tables: []string{"orders"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 400, Width: 1000},
			{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 30, Width: 50},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Lo: 50, Hi: 800},
			{Kind: relq.FixedStringIn, Col: relq.ColumnRef{Table: "orders", Column: "o_status"}, Values: []string{"OPEN", "CLOSED"}},
		},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Op: relq.CmpEQ, Target: 1},
	}

	rv, err := e.ViolationScan(q)
	if err != nil {
		t.Fatal(err)
	}
	orders, err := cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	amount, _ := orders.NumericColumn(orders.Schema().Ordinal("o_amount"))
	qty, _ := orders.NumericColumn(orders.Schema().Ordinal("o_qty"))
	for i, r := range rv {
		if i > 0 && r.Row <= rv[i-1].Row {
			t.Fatalf("row %d: row ids not ascending (%d after %d)", i, r.Row, rv[i-1].Row)
		}
		want := []float64{q.Dims[0].Violation(amount[r.Row]), q.Dims[1].Violation(qty[r.Row])}
		for j := range want {
			if math.Float64bits(r.Viol[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d viol[%d]: %v != %v", r.Row, j, r.Viol[j], want[j])
			}
		}
		if math.Float64bits(r.AggValue) != math.Float64bits(qty[r.Row]) {
			t.Fatalf("row %d agg value: %v != %v", r.Row, r.AggValue, qty[r.Row])
		}
	}
	for _, region := range []relq.Region{
		relq.PrefixRegion([]float64{math.Inf(1), math.Inf(1)}),
		relq.PrefixRegion([]float64{0, 0}),
		relq.PrefixRegion([]float64{20, 35}),
		{{Lo: 5, Hi: 60}, {Lo: -1, Hi: 90}},
	} {
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		naiveEqual(t, fmt.Sprintf("ViolationScan fold over %v", region), foldViolationRows(t, q, rv, region), want)
	}

	// Clustered layout: the ViolationScan must engage zone maps on its
	// fixed range and exclude skipped rows from RowsScanned.
	ccat := clusteredCatalog(t, 10*blockRows)
	cvec := New(ccat)
	cq := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 10, Width: 30},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 500},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	before := cvec.Snapshot()
	cv, err := cvec.ViolationScan(cq)
	if err != nil {
		t.Fatal(err)
	}
	cd := cvec.Snapshot().Sub(before)
	all, err := cvec.NaiveAggregate(cq, relq.PrefixRegion([]float64{math.Inf(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(cv)) != all.Count {
		t.Fatalf("clustered row count: %d != NaiveAggregate %d", len(cv), all.Count)
	}
	if cd.BlocksSkipped == 0 {
		t.Fatalf("clustered ViolationScan should skip blocks; stats %+v", cd)
	}
	if cd.RowsScanned >= int64(10*blockRows) {
		t.Fatalf("RowsScanned %d should exclude skipped blocks", cd.RowsScanned)
	}
}

// TestSemiJoinPushdownEquivalence shapes a query so the scan-level
// semi-join pushdown engages (tiny pre-filtered probe side scanned
// before a large build side on an equi edge) and checks the result
// against NaiveAggregate.
func TestSemiJoinPushdownEquivalence(t *testing.T) {
	cat := messyCatalog(t, 8000, 400, 31)
	vec := New(cat)

	// cust is table 0 (scanned first, becomes the probe side of the
	// planned equi attach of orders); the tight c_score bound keeps its
	// candidate set far below len(orders)/4, arming the pushdown.
	q := &relq.Query{
		Tables: []string{"cust", "orders"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "cust", Column: "c_score"}, Bound: 2, Width: 100},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 700, Width: 1000},
		},
		Fixed: []relq.FixedPred{{
			Kind:  relq.FixedEquiJoin,
			Left:  relq.ColumnRef{Table: "cust", Column: "c_key"},
			Right: relq.ColumnRef{Table: "orders", Column: "o_custkey"},
		}},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Op: relq.CmpEQ, Target: 1},
	}

	b, err := vec.bind(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := vec.attachPlan(b)
	if plan[1].equi == nil || plan[1].probeTbl != 0 {
		t.Fatalf("attach plan did not arm pushdown for orders: %+v", plan[1])
	}

	for _, hi := range []float64{0, 3, 25, 90} {
		region := relq.PrefixRegion([]float64{hi, hi})
		pv, err := vec.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := vec.NaiveAggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		naiveEqual(t, fmt.Sprintf("pushdown hi=%v", hi), pv, pn)
	}
}

// TestVectorLegacyEquivalenceAfterMutation checks zone-map retirement
// under appends: growing a table changes its column lengths, so the
// table-identity cache scheme (exact *Table pointer + matching length)
// must miss and rebuild — the scan never prunes with stale block
// bounds, and results keep matching NaiveAggregate.
func TestVectorLegacyEquivalenceAfterMutation(t *testing.T) {
	cat := clusteredCatalog(t, 4*blockRows)
	vec := New(cat)

	q := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 20, Width: 30},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 600},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	region := relq.PrefixRegion([]float64{50})

	pv, err := vec.Aggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := vec.NaiveAggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	naiveEqual(t, "pre-mutation", pv, pn)

	// Append out-of-order rows that an unrefreshed zone map would
	// wrongly prune (values inside the fixed range land in new blocks,
	// and the old tail block's max changes).
	tbl, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blockRows+7; i++ {
		if err := tbl.AppendRow(data.FloatValue(300), data.FloatValue(5)); err != nil {
			t.Fatal(err)
		}
	}
	vec.InvalidateTable("events")

	pv2, err := vec.Aggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	pn2, err := vec.NaiveAggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	naiveEqual(t, "post-mutation", pv2, pn2)
	if pv2.Count <= pv.Count {
		t.Fatalf("appended qualifying rows must grow the count: %d -> %d", pv.Count, pv2.Count)
	}
}

// TestZoneMapRetirementSharded is the mutate-then-scan sweep of the
// derived-state retirement story at shard counts 1-16: each round
// mutates the fact table a different way — sub-block append, block-
// sized append, and a same-size catalog Replace (an auto-clustering
// style re-sort, where only the *Table identity changes, not the row
// count) — then re-scans through InvalidateTable. The sharded
// evaluator must keep matching NaiveAggregate after every round; a
// stale zone map, column vector, or sorted index from a previous
// generation shows up here as a pruned qualifying row.
func TestZoneMapRetirementSharded(t *testing.T) {
	q := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 20, Width: 30},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 600},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	regions := []relq.Region{
		relq.PrefixRegion([]float64{0}),
		relq.PrefixRegion([]float64{50}),
		relq.PrefixRegion([]float64{100}),
	}

	for _, shards := range []int{1, 2, 3, 5, 8, 16} {
		cat := clusteredCatalog(t, 4*blockRows)
		vec, err := NewShardedOn(cat, "events", shards)
		if err != nil {
			t.Fatal(err)
		}
		oracle := New(cat)

		compare := func(round string) []agg.Partial {
			t.Helper()
			got, err := vec.AggregateBatch(context.Background(), q, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				want, err := oracle.NaiveAggregate(q, regions[i])
				if err != nil {
					t.Fatal(err)
				}
				naiveEqual(t, fmt.Sprintf("shards=%d %s region %d", shards, round, i), got[i], want)
			}
			return got
		}
		invalidate := func() { vec.InvalidateTable("events") }

		base := compare("baseline")
		tbl, err := cat.Table("events")
		if err != nil {
			t.Fatal(err)
		}

		// Round 1: sub-block append — the tail block's bounds change
		// without adding a full new block.
		for i := 0; i < 7; i++ {
			if err := tbl.AppendRow(data.FloatValue(300), data.FloatValue(5)); err != nil {
				t.Fatal(err)
			}
		}
		invalidate()
		r1 := compare("sub-block append")
		if r1[2].Count != base[2].Count+7 {
			t.Fatalf("shards=%d: sub-block append: count %d -> %d, want +7",
				shards, base[2].Count, r1[2].Count)
		}

		// Round 2: block-sized append — new blocks appear whose rows a
		// stale zone map generation would never have covered.
		for i := 0; i < blockRows+11; i++ {
			if err := tbl.AppendRow(data.FloatValue(300), data.FloatValue(5)); err != nil {
				t.Fatal(err)
			}
		}
		invalidate()
		r2 := compare("block append")
		if r2[2].Count != r1[2].Count+blockRows+11 {
			t.Fatalf("shards=%d: block append: count %d -> %d, want +%d",
				shards, r1[2].Count, r2[2].Count, blockRows+11)
		}

		// Round 3: same-size Replace — a re-sorted copy swaps in with an
		// unchanged row count, so only table identity distinguishes the
		// new layout from the old (the scheme an auto-clustering re-sort
		// retires caches through).
		sorted, err := data.SortedBy(tbl, "val")
		if err != nil {
			t.Fatal(err)
		}
		cat.Replace(sorted)
		invalidate()
		r3 := compare("same-size replace")
		if r3[2].Count != r2[2].Count {
			t.Fatalf("shards=%d: replace changed the count: %d -> %d",
				shards, r2[2].Count, r3[2].Count)
		}

		// Round 4: append onto the replaced generation, out of sorted
		// order, to confirm the new generation's tail retires too.
		sorted2, err := cat.Table("events")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 13; i++ {
			if err := sorted2.AppendRow(data.FloatValue(1), data.FloatValue(2)); err != nil {
				t.Fatal(err)
			}
		}
		invalidate()
		r4 := compare("post-replace append")
		if r4[2].Count != r3[2].Count+13 {
			t.Fatalf("shards=%d: post-replace append: count %d -> %d, want +13",
				shards, r3[2].Count, r4[2].Count)
		}
	}
}
