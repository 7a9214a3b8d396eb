package exec

import (
	"fmt"
	"strings"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// binding is a query compiled against the catalog: every column
// reference resolved to a (table index, column vector) pair so the
// execution loops touch only dense float64 slices.
type binding struct {
	q      *relq.Query
	tables []*data.Table
	tblOf  map[string]int // lower-cased table name -> index in q.Tables order

	// selDims[i] corresponds to q.Dims positions holding select
	// dimensions; joinDims likewise for join-band dimensions.
	selDims  []selBind
	joinDims []joinBind

	// Per-table fixed filters.
	ranges  [][]rangeBind  // [tableIdx]
	strFlts [][]stringBind // [tableIdx]

	equiJoins []equiBind

	// Aggregate attribute: aggTbl < 0 means COUNT(*).
	aggTbl int
	aggVec []float64

	spec agg.Spec
}

type selBind struct {
	dim *relq.Dimension
	di  int // index into q.Dims
	tbl int
	ord int
	vec []float64
}

type joinBind struct {
	dim        *relq.Dimension
	di         int
	ltbl, rtbl int
	lvec, rvec []float64
	lc, rc     float64
}

type rangeBind struct {
	ord    int
	vec    []float64
	lo, hi float64
}

type stringBind struct {
	vec []string
	set map[string]struct{}
}

type equiBind struct {
	ltbl, rtbl int
	lvec, rvec []float64
	lc, rc     float64
}

func coefOr1(c float64) float64 {
	if c == 0 {
		return 1
	}
	return c
}

// bind compiles q against the engine's catalog, resolving column
// references through the numeric-column cache.
func (e *Engine) bind(q *relq.Query) (*binding, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	b := &binding{
		q:      q,
		tables: make([]*data.Table, len(q.Tables)),
		tblOf:  make(map[string]int, len(q.Tables)),
		aggTbl: -1,
	}
	for i, name := range q.Tables {
		t, err := e.cat.Table(name)
		if err != nil {
			return nil, err
		}
		b.tables[i] = t
		b.tblOf[strings.ToLower(name)] = i
	}
	b.ranges = make([][]rangeBind, len(b.tables))
	b.strFlts = make([][]stringBind, len(b.tables))

	numVec := func(ref relq.ColumnRef) (int, int, []float64, error) {
		ti, ok := b.tblOf[strings.ToLower(ref.Table)]
		if !ok {
			return 0, 0, nil, fmt.Errorf("exec: predicate references table %q not in FROM", ref.Table)
		}
		ord := b.tables[ti].Schema().Ordinal(ref.Column)
		vec, err := e.numericColumn(b.tables[ti], ref.Column)
		if err != nil {
			return 0, 0, nil, err
		}
		return ti, ord, vec, nil
	}

	for i := range q.Dims {
		d := &q.Dims[i]
		switch d.Kind {
		case relq.SelectLE, relq.SelectGE, relq.SelectEQ:
			ti, ord, vec, err := numVec(d.Col)
			if err != nil {
				return nil, err
			}
			b.selDims = append(b.selDims, selBind{dim: d, di: i, tbl: ti, ord: ord, vec: vec})
		case relq.JoinBand:
			lt, _, lv, err := numVec(d.Left)
			if err != nil {
				return nil, err
			}
			rt, _, rv, err := numVec(d.Right)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, fmt.Errorf("exec: join dimension %s joins a table to itself", d.Label())
			}
			b.joinDims = append(b.joinDims, joinBind{
				dim: d, di: i, ltbl: lt, rtbl: rt, lvec: lv, rvec: rv,
				lc: coefOr1(d.LCoef), rc: coefOr1(d.RCoef),
			})
		default:
			return nil, fmt.Errorf("exec: dimension %d has unknown kind %d", i, d.Kind)
		}
	}

	for i := range q.Fixed {
		p := &q.Fixed[i]
		switch p.Kind {
		case relq.FixedRange:
			ti, ord, vec, err := numVec(p.Col)
			if err != nil {
				return nil, err
			}
			b.ranges[ti] = append(b.ranges[ti], rangeBind{ord: ord, vec: vec, lo: p.Lo, hi: p.Hi})
		case relq.FixedStringIn:
			ti, ok := b.tblOf[strings.ToLower(p.Col.Table)]
			if !ok {
				return nil, fmt.Errorf("exec: predicate references table %q not in FROM", p.Col.Table)
			}
			t := b.tables[ti]
			ord := t.Schema().Ordinal(p.Col.Column)
			if ord < 0 {
				return nil, fmt.Errorf("exec: table %s has no column %q", t.Name(), p.Col.Column)
			}
			svec, ok := t.Strings(ord)
			if !ok {
				return nil, fmt.Errorf("exec: column %s is not TEXT", p.Col)
			}
			set := make(map[string]struct{}, len(p.Values))
			for _, v := range p.Values {
				set[v] = struct{}{}
			}
			b.strFlts[ti] = append(b.strFlts[ti], stringBind{vec: svec, set: set})
		case relq.FixedEquiJoin:
			lt, _, lv, err := numVec(p.Left)
			if err != nil {
				return nil, err
			}
			rt, _, rv, err := numVec(p.Right)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, fmt.Errorf("exec: fixed join joins table %q to itself", p.Left.Table)
			}
			b.equiJoins = append(b.equiJoins, equiBind{
				ltbl: lt, rtbl: rt, lvec: lv, rvec: rv,
				lc: coefOr1(p.LCoef), rc: coefOr1(p.RCoef),
			})
		}
	}

	c := q.Constraint
	spec, err := agg.SpecFor(c)
	if err != nil {
		return nil, err
	}
	b.spec = spec
	if !(c.Func == relq.AggCount && c.Attr.Column == "") {
		ti, _, vec, err := numVec(c.Attr)
		if err != nil {
			return nil, err
		}
		b.aggTbl, b.aggVec = ti, vec
	}
	return b, nil
}

// numericColumn returns the cached float64 view of a numeric column.
// data.Table.NumericColumn copies Int64 vectors on every call; the cache
// makes repeated cell-query execution allocation-free. Hits require the
// entry to have been built from this exact *Table at this row count
// (see colEntry), so both appends and same-size catalog Replaces — an
// auto-clustering re-sort is one — miss and rebuild.
func (e *Engine) numericColumn(t *data.Table, col string) ([]float64, error) {
	ord := t.Schema().Ordinal(col)
	if ord < 0 {
		return nil, fmt.Errorf("exec: table %s has no column %q", t.Name(), col)
	}
	key := colKey{table: strings.ToLower(t.Name()), ord: ord}
	e.mu.RLock()
	ent, ok := e.colCache[key]
	e.mu.RUnlock()
	if ok && ent.src == t && len(ent.vec) == t.NumRows() {
		return ent.vec, nil
	}
	vec, err := t.NumericColumn(ord)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.colCache[key] = colEntry{vec: vec, src: t}
	e.mu.Unlock()
	return vec, nil
}
