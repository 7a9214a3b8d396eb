package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
)

// oracle recomputes aggregates independently of the engine under test.
// Single-table queries go to exec.NaiveAggregate on an engine of its
// own, so checking never warms the measured engine's caches. A join's
// full cross product is out of NaiveAggregate's reach at benchmark scale
// (50K partsupp rows give 1.6e12 tuples), so joins go to joinAggregate,
// which applies the same per-tuple test to the tuples the fixed
// equi-joins and join bands can pair; its tests hold it to
// NaiveAggregate on catalogs small enough to enumerate.
type oracle struct {
	naive *exec.Engine
	// memo holds the partial of (query, region, table sizes) already
	// computed: the mix repeats, and a region's partial cannot change
	// while its tables keep their rows.
	memo map[string]agg.Partial
}

func newOracle(cat *data.Catalog) *oracle {
	return &oracle{naive: exec.New(cat), memo: make(map[string]agg.Partial)}
}

func (o *oracle) partial(q *relq.Query, r relq.Region) (agg.Partial, error) {
	cat := o.naive.Catalog()
	var key strings.Builder
	fmt.Fprintf(&key, "%p %v", q, r)
	for _, name := range q.Tables {
		t, err := cat.Table(name)
		if err != nil {
			return agg.Zero(), err
		}
		fmt.Fprintf(&key, " %d", t.NumRows())
	}
	if p, ok := o.memo[key.String()]; ok {
		return p, nil
	}
	var p agg.Partial
	var err error
	if len(q.Tables) == 1 {
		p, err = o.naive.NaiveAggregate(q, r)
	} else {
		p, err = joinAggregate(cat, q, r)
	}
	if err != nil {
		return agg.Zero(), err
	}
	o.memo[key.String()] = p
	return p, nil
}

// calibrate sets q's target to the original query's aggregate over
// ratio, as workload.Calibrate does, but measured by the oracle so that
// re-calibrating between searches leaves the engine under test
// untouched.
func (o *oracle) calibrate(q *relq.Query, ratio float64) error {
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return err
	}
	p, err := o.partial(q, relq.PrefixRegion(make([]float64, q.NumDims())))
	if err != nil {
		return err
	}
	actual := spec.Final(p)
	if math.IsNaN(actual) || actual <= 0 {
		return fmt.Errorf("original query has aggregate %v; cannot calibrate", actual)
	}
	q.Constraint.Target = actual / ratio
	return nil
}

// check verifies every refined query of a search result against the
// oracle at its prefix region: COUNT and MAX must match exactly, SUM
// within agg.ApproxEqual, and the oracle's aggregate must meet the
// constraint within delta. It returns one line per mismatch; a search
// that found no satisfying query is a mismatch too, since every ACQ of
// every mix is satisfiable.
func (o *oracle) check(q *relq.Query, res *core.Result, delta float64) ([]string, error) {
	if !res.Satisfied {
		return []string{"no satisfying refined query"}, nil
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return nil, err
	}
	errFn := agg.DefaultError(q.Constraint)
	var bad []string
	for _, rq := range res.Queries {
		p, err := o.partial(q, relq.PrefixRegion(rq.Scores))
		if err != nil {
			return nil, err
		}
		want := spec.Final(p)
		same := rq.Aggregate == want
		if spec.Func == relq.AggSum {
			same = agg.ApproxEqual(agg.Partial{Sum: rq.Aggregate}, agg.Partial{Sum: want}, 1e-9)
		}
		if e := errFn(q.Constraint.Target, want); !same || !(e <= delta) {
			bad = append(bad, fmt.Sprintf("scores %v: engine %v, oracle %v (error %.4f, delta %v)",
				rq.Scores, rq.Aggregate, want, e, delta))
		}
	}
	return bad, nil
}

// joinAggregate evaluates a multi-table query over one region tuple by
// tuple, with NaiveAggregate's per-tuple test: every fixed equi-join
// holds exactly, the violation vector lies in the region, and the
// aggregate folds the tuple's value. Instead of the cross product it
// starts from the table with the most join edges and reaches each
// further table through an index on one edge to a table already bound:
// a hash on a fixed equi-join, or a sorted key range on a join band
// that covers every row whose band violation can be within the
// region. Queries with fixed range or string filters, or with a table
// no join reaches, are refused.
func joinAggregate(cat *data.Catalog, q *relq.Query, region relq.Region) (agg.Partial, error) {
	if len(region) != len(q.Dims) {
		return agg.Zero(), fmt.Errorf("region has %d dims, query has %d", len(region), len(q.Dims))
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return agg.Zero(), err
	}
	tables := make([]*data.Table, len(q.Tables))
	tblOf := make(map[string]int, len(q.Tables))
	for i, name := range q.Tables {
		if tables[i], err = cat.Table(name); err != nil {
			return agg.Zero(), err
		}
		tblOf[strings.ToLower(name)] = i
	}
	col := func(ref relq.ColumnRef) (int, []float64, error) {
		ti, ok := tblOf[strings.ToLower(ref.Table)]
		if !ok {
			return 0, nil, fmt.Errorf("column %s names a table not in FROM", ref)
		}
		ord := tables[ti].Schema().Ordinal(ref.Column)
		if ord < 0 {
			return 0, nil, fmt.Errorf("table %s has no column %q", ref.Table, ref.Column)
		}
		v, err := tables[ti].NumericColumn(ord)
		return ti, v, err
	}
	coef := func(c float64) float64 {
		if c == 0 {
			return 1
		}
		return c
	}

	// An edge links two tables: a fixed equi-join (band < 0) or the
	// join band of dimension band. halfWidth bounds |lc·l − rc·r| for
	// the pairs a band edge may admit.
	type edge struct {
		lt, rt    int
		lv, rv    []float64
		lc, rc    float64
		band      int
		halfWidth float64
	}
	var edges []edge
	for i := range q.Fixed {
		p := &q.Fixed[i]
		if p.Kind != relq.FixedEquiJoin {
			return agg.Zero(), fmt.Errorf("join oracle supports only equi-join fixed predicates")
		}
		lt, lv, err := col(p.Left)
		if err != nil {
			return agg.Zero(), err
		}
		rt, rv, err := col(p.Right)
		if err != nil {
			return agg.Zero(), err
		}
		edges = append(edges, edge{lt: lt, rt: rt, lv: lv, rv: rv, lc: coef(p.LCoef), rc: coef(p.RCoef), band: -1})
	}
	type selDim struct {
		di, tbl int
		vec     []float64
	}
	var sels []selDim
	for i := range q.Dims {
		d := &q.Dims[i]
		if d.Kind != relq.JoinBand {
			ti, v, err := col(d.Col)
			if err != nil {
				return agg.Zero(), err
			}
			sels = append(sels, selDim{di: i, tbl: ti, vec: v})
			continue
		}
		lt, lv, err := col(d.Left)
		if err != nil {
			return agg.Zero(), err
		}
		rt, rv, err := col(d.Right)
		if err != nil {
			return agg.Zero(), err
		}
		hw := d.Base + region[i].Hi*d.Width/100
		hw += 1e-9 * (1 + math.Abs(hw)) // the range only narrows; the per-tuple test decides
		edges = append(edges, edge{lt: lt, rt: rt, lv: lv, rv: rv, lc: coef(d.LCoef), rc: coef(d.RCoef), band: i, halfWidth: hw})
	}
	aggTbl, aggVec := -1, []float64(nil)
	if c := q.Constraint; !(c.Func == relq.AggCount && c.Attr.Column == "") {
		if aggTbl, aggVec, err = col(c.Attr); err != nil {
			return agg.Zero(), err
		}
	}

	// Join order: the most-connected table first, then always a table
	// reachable from the bound ones, preferring an equi-join to a band.
	degree := make([]int, len(tables))
	for _, e := range edges {
		degree[e.lt]++
		degree[e.rt]++
	}
	first := 0
	for i := range tables {
		if degree[i] > degree[first] {
			first = i
		}
	}
	type step struct {
		tbl int
		// lookup returns the candidate rows of tbl for the bound rows.
		lookup func(rows []int32) []int32
	}
	bound := map[int]bool{first: true}
	var steps []step
	for len(bound) < len(tables) {
		pick, pickEdge := -1, edge{}
		for _, e := range edges {
			var next int
			switch {
			case bound[e.lt] && !bound[e.rt]:
				next = e.rt
			case bound[e.rt] && !bound[e.lt]:
				next = e.lt
			default:
				continue
			}
			if pick < 0 || (pickEdge.band >= 0 && e.band < 0) {
				pick, pickEdge = next, e
			}
		}
		if pick < 0 {
			return agg.Zero(), fmt.Errorf("join oracle: a table is reachable by no join")
		}
		e := pickEdge
		// Orient the edge so that "own" is the new table.
		ownVec, ownC, otherTbl, otherVec, otherC := e.lv, e.lc, e.rt, e.rv, e.rc
		if pick == e.rt {
			ownVec, ownC, otherTbl, otherVec, otherC = e.rv, e.rc, e.lt, e.lv, e.lc
		}
		if e.band < 0 {
			idx := make(map[float64][]int32)
			for r, v := range ownVec {
				idx[ownC*v] = append(idx[ownC*v], int32(r))
			}
			steps = append(steps, step{tbl: pick, lookup: func(rows []int32) []int32 {
				return idx[otherC*otherVec[rows[otherTbl]]]
			}})
		} else {
			if ownC <= 0 {
				return agg.Zero(), fmt.Errorf("join oracle: band coefficient %v not positive", ownC)
			}
			sorted := make([]int32, len(ownVec))
			for r := range sorted {
				sorted[r] = int32(r)
			}
			sort.Slice(sorted, func(i, j int) bool { return ownVec[sorted[i]] < ownVec[sorted[j]] })
			hw := e.halfWidth
			steps = append(steps, step{tbl: pick, lookup: func(rows []int32) []int32 {
				c := otherC * otherVec[rows[otherTbl]]
				lo := sort.Search(len(sorted), func(i int) bool { return ownC*ownVec[sorted[i]] >= c-hw })
				hi := sort.Search(len(sorted), func(i int) bool { return ownC*ownVec[sorted[i]] > c+hw })
				return sorted[lo:hi]
			}})
		}
		bound[pick] = true
	}

	part := agg.Zero()
	rows := make([]int32, len(tables))
	viol := make([]float64, len(q.Dims))
	leaf := func() {
		for _, e := range edges {
			if e.band < 0 && e.lc*e.lv[rows[e.lt]] != e.rc*e.rv[rows[e.rt]] {
				return
			}
		}
		for _, s := range sels {
			viol[s.di] = q.Dims[s.di].Violation(s.vec[rows[s.tbl]])
		}
		for _, e := range edges {
			if e.band >= 0 {
				viol[e.band] = q.Dims[e.band].JoinViolation(e.lv[rows[e.lt]], e.rv[rows[e.rt]])
			}
		}
		if !region.Contains(viol) {
			return
		}
		v := 1.0
		if aggTbl >= 0 {
			v = aggVec[rows[aggTbl]]
		}
		spec.StepValue(&part, v)
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(steps) {
			leaf()
			return
		}
		for _, r := range steps[k].lookup(rows) {
			rows[steps[k].tbl] = r
			rec(k + 1)
		}
	}
	for r := 0; r < tables[first].NumRows(); r++ {
		rows[first] = int32(r)
		rec(0)
	}
	return part, nil
}
