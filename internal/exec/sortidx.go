package exec

import (
	"math"
	"sort"
	"strings"

	"acquire/internal/data"
)

// sortedIdx is a lazily built secondary index: column values in sorted
// order with their row ids. Scans use it the way Postgres uses a B-tree
// index: the most selective range predicate drives candidate
// generation, and the remaining predicates are verified per candidate.
// This is what makes ACQUIRE's highly selective cell queries cheap
// relative to the broad whole-query probes of the baselines — the cost
// asymmetry the paper's evaluation rests on.
//
// NaN rows are kept apart in nan: they have no place in a sorted order,
// and every range lookup returns them as candidates, because the scan's
// reject test `v < lo || v > hi` keeps NaN (the rows' own predicates
// decide them later, exactly as on the full-scan path).
type sortedIdx struct {
	vals []float64
	rows []int32
	nan  []int32
}

// sortedIndex returns the cached sorted index for a column, building it
// on first use. Hits require the same *Table identity at the same row
// count (see sortEntry): appends and same-size Replaces both miss.
func (e *Engine) sortedIndex(t *data.Table, ord int) (*sortedIdx, error) {
	key := colKey{table: strings.ToLower(t.Name()), ord: ord}
	e.mu.RLock()
	ent, ok := e.sortIdx[key]
	e.mu.RUnlock()
	if ok && ent.src == t && ent.n == t.NumRows() {
		return ent.idx, nil
	}
	// Refresh through the column cache.
	vec, err := e.numericColumn(t, t.Schema().Columns[ord].Name)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, 0, len(vec))
	var nan []int32
	for i, v := range vec {
		if math.IsNaN(v) {
			nan = append(nan, int32(i))
		} else {
			rows = append(rows, int32(i))
		}
	}
	sort.Slice(rows, func(a, b int) bool { return vec[rows[a]] < vec[rows[b]] })
	idx := &sortedIdx{vals: make([]float64, len(rows)), rows: rows, nan: nan}
	for i, r := range rows {
		idx.vals[i] = vec[r]
	}
	e.mu.Lock()
	e.sortIdx[key] = sortEntry{idx: idx, src: t, n: t.NumRows()}
	e.mu.Unlock()
	return idx, nil
}

// rangeSize counts the candidates rangeRows returns for [lo, hi].
func (ix *sortedIdx) rangeSize(lo, hi float64) int {
	a := sort.SearchFloat64s(ix.vals, lo)
	b := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] > hi })
	return max(b-a, 0) + len(ix.nan)
}

// rangeRows returns the row ids with value in [lo, hi] in value order,
// followed by the NaN rows in row order.
func (ix *sortedIdx) rangeRows(lo, hi float64) []int32 {
	a := sort.SearchFloat64s(ix.vals, lo)
	b := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] > hi })
	b = max(b, a)
	switch {
	case len(ix.nan) > 0:
		return append(ix.rows[a:b:b], ix.nan...)
	case b == a:
		return nil
	}
	return ix.rows[a:b]
}
