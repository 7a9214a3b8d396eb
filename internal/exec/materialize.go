package exec

import (
	"fmt"

	"acquire/internal/data"
	"acquire/internal/relq"
)

// ResultSet is a materialised query result: the qualifying joined
// tuples with their column values, in a stable column order (tables in
// FROM order, columns in schema order, names qualified).
type ResultSet struct {
	Columns []string
	Rows    [][]data.Value
	// Truncated is set when the limit cut the result off.
	Truncated bool
}

// Materialize executes the query restricted to the region and returns
// up to limit qualifying result tuples with all their columns — the
// SELECT * output a user would see for a refined query. Counts as one
// query execution.
func (e *Engine) Materialize(q *relq.Query, region relq.Region, limit int) (*ResultSet, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("exec: Materialize limit must be positive, got %d", limit)
	}
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	if len(region) != len(q.Dims) {
		return nil, fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(q.Dims))
	}
	e.countQueries(1)

	rs := &ResultSet{}
	for ti, t := range b.tables {
		for _, c := range t.Schema().Columns {
			rs.Columns = append(rs.Columns, q.Tables[ti]+"."+c.Name)
		}
	}
	if region.Empty() {
		return rs, nil
	}

	cands := make([][]int32, len(b.tables))
	for ti := range b.tables {
		c, err := e.vscanTable(b, region, ti, nil)
		if err != nil {
			return nil, err
		}
		cands[ti] = c
		if len(c) == 0 {
			return rs, nil
		}
	}
	tuples, order, err := e.join(b, region, cands)
	if err != nil {
		return nil, err
	}
	stride := len(order)
	if stride == 0 || len(tuples) == 0 {
		return rs, nil
	}
	pos := make([]int, len(b.tables))
	for slot, ti := range order {
		pos[ti] = slot
	}

	viol := make([]float64, len(q.Dims))
	ntup := len(tuples) / stride
	e.countTuples(int64(ntup))
tuple:
	for t := 0; t < ntup; t++ {
		row := tuples[t*stride : (t+1)*stride]
		for i := range b.equiJoins {
			ej := &b.equiJoins[i]
			if ej.lc*ej.lvec[row[pos[ej.ltbl]]] != ej.rc*ej.rvec[row[pos[ej.rtbl]]] {
				continue tuple
			}
		}
		for i := range b.selDims {
			sd := &b.selDims[i]
			viol[sd.di] = sd.dim.Violation(sd.vec[row[pos[sd.tbl]]])
		}
		for i := range b.joinDims {
			jd := &b.joinDims[i]
			viol[jd.di] = jd.dim.JoinViolation(jd.lvec[row[pos[jd.ltbl]]], jd.rvec[row[pos[jd.rtbl]]])
		}
		if !region.Contains(viol) {
			continue tuple
		}
		if len(rs.Rows) >= limit {
			rs.Truncated = true
			break
		}
		var out []data.Value
		for ti, tbl := range b.tables {
			r := int(row[pos[ti]])
			for c := range tbl.Schema().Columns {
				out = append(out, tbl.ValueAt(r, c))
			}
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}
