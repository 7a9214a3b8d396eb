package exec

import (
	"log/slog"
	"math"
	"strings"

	"acquire/internal/agg"
	"acquire/internal/index"
	"acquire/internal/relq"
)

// boxConstraint is one select dimension's contribution to the box walk:
// the violation interval it must satisfy, the grid dimension its column
// occupies, and the driving value interval the region admits on it.
type boxConstraint struct {
	dim      *relq.Dimension
	vec      []float64
	ord      int // column ordinal in the table (zone-map key)
	pos      int // grid dimension
	iv       relq.ViolInterval
	val      index.Interval // admitted value interval (conservative)
	interior []bool         // per bin offset (binLo..binHi on pos): all rows qualify
}

// boxAggregate answers an eligible single-table region query from an
// aggregate-augmented grid: the region's value box is decomposed into
// interior cells — every row provably qualifies, answered by merging
// the stored per-cell partials with zero row touches (§2.6 OSP) — and
// boundary cells, answered by scanning only their posting lists.
//
// ok=false means the query is not eligible (joins, UDAs, fixed
// predicates, split SelectEQ bands, unindexed dimensions) and the
// caller must run the scan path. The decomposition is conservative:
// a cell is interior only when the padded bin spans prove every
// resident row's violation vector inside the region, so boundary rows
// get the exact per-row check of the scan path and results agree.
func (e *Engine) boxAggregate(b *binding, region relq.Region, eo *engineObs) (agg.Partial, bool, error) {
	if len(b.tables) != 1 || len(b.joinDims) != 0 || len(b.equiJoins) != 0 ||
		len(b.ranges[0]) != 0 || len(b.strFlts[0]) != 0 || b.spec.Func == relq.AggUser {
		return agg.Zero(), false, nil
	}
	g := e.grid(b.q.Tables[0], b.tables[0])
	if g == nil || !g.HasAggs() {
		return agg.Zero(), false, nil
	}
	aggIdx := -1
	if b.aggTbl >= 0 {
		if aggIdx = g.AggIndex(b.q.Constraint.Attr.Column); aggIdx < 0 {
			return agg.Zero(), false, nil
		}
	}
	gridCols := g.Columns()
	colPos := make(map[string]int, len(gridCols))
	for i, c := range gridCols {
		colPos[strings.ToLower(c)] = i
	}

	cons := make([]boxConstraint, 0, len(b.selDims))
	for i := range b.selDims {
		sd := &b.selDims[i]
		pos, ok := colPos[strings.ToLower(sd.dim.Col.Column)]
		if !ok {
			return agg.Zero(), false, nil // dimension not indexed
		}
		ivs := valueIntervals(sd.dim, region[sd.di])
		switch len(ivs) {
		case 0:
			return agg.Zero(), true, nil // dimension admits nothing
		case 1:
		default:
			// Split SelectEQ band: two disjoint boxes would need
			// double-count bookkeeping; the scan path handles it.
			return agg.Zero(), false, nil
		}
		cons = append(cons, boxConstraint{
			dim: sd.dim, vec: sd.vec, ord: sd.ord, pos: pos,
			iv: region[sd.di], val: ivs[0],
		})
	}

	// Bin box: per grid dimension, the full bin range intersected with
	// every constraint's driving interval (padded so float rounding at
	// an interval edge can only widen the box, never lose a row).
	los := make([]int, len(gridCols))
	his := make([]int, len(gridCols))
	for d := range gridCols {
		los[d], his[d] = 0, g.Bins(d)-1
	}
	for i := range cons {
		lo, hi := cons[i].val.Lo, cons[i].val.Hi
		// Pad from the finite endpoints only: an infinite side must not
		// poison the pad (Abs(±Inf) = +Inf would blow the finite side to
		// ±Inf and degenerate the box to the whole grid).
		pad := 1e-9
		if !math.IsInf(lo, -1) {
			pad += 1e-9 * math.Abs(lo)
		}
		if !math.IsInf(hi, 1) {
			pad += 1e-9 * math.Abs(hi)
		}
		if !math.IsInf(lo, -1) {
			lo -= pad
		}
		if !math.IsInf(hi, 1) {
			hi += pad
		}
		bl, bh, ok := g.BinRange(cons[i].pos, lo, hi)
		if !ok {
			return agg.Zero(), true, nil // interval misses the domain
		}
		if bl > los[cons[i].pos] {
			los[cons[i].pos] = bl
		}
		if bh < his[cons[i].pos] {
			his[cons[i].pos] = bh
		}
		if los[cons[i].pos] > his[cons[i].pos] {
			return agg.Zero(), true, nil
		}
	}

	// Per-constraint interior flags, one per bin in the box along the
	// constraint's dimension: true when the padded bin span proves every
	// resident value's violation inside (iv.Lo, iv.Hi]. Violation is
	// monotone on each side of the bound for every select kind, so the
	// span's extremes are attained at its endpoints (plus the bound
	// itself for the V-shaped SelectEQ).
	for i := range cons {
		c := &cons[i]
		c.interior = make([]bool, his[c.pos]-los[c.pos]+1)
		for bin := los[c.pos]; bin <= his[c.pos]; bin++ {
			sLo, sHi := g.BinSpan(c.pos, bin)
			vLo, vHi := c.dim.Violation(sLo), c.dim.Violation(sHi)
			minV, maxV := math.Min(vLo, vHi), math.Max(vLo, vHi)
			if c.dim.Kind == relq.SelectEQ && sLo <= c.dim.Bound && c.dim.Bound <= sHi {
				minV = 0
			}
			c.interior[bin-los[c.pos]] = minV > c.iv.Lo && maxV <= c.iv.Hi
		}
	}

	// Zone predicates for boundary-cell posting runs: the same
	// pruneInterval hulls the full scan uses, keyed by each constraint's
	// column. Posting lists are ascending, so a cell's rows group into
	// per-physical-block runs (Grid.PostingRuns) and a run whose block
	// provably misses a hull is dropped without gathering a single row —
	// sound here because the per-row keep test enforces both interval
	// sides (v > iv.Lo && v <= iv.Hi), so every skipped row is one the
	// filter would have rejected anyway.
	var zps []zonePred
	for i := range cons {
		zlo, zhi := pruneInterval(cons[i].dim, cons[i].iv)
		if math.IsInf(zlo, -1) && math.IsInf(zhi, 1) {
			continue
		}
		zm := e.zoneMapFor(b.tables[0], cons[i].ord, cons[i].vec)
		zps = append(zps, zonePred{zm: zm, lo: zlo, hi: zhi})
	}

	// Walk the box in odometer order (deterministic): interior cells
	// merge the stored partial; boundary cells scan their posting list
	// with the exact per-row region check of the scan path.
	out := agg.Zero()
	var cellsMerged, boundaryRows, runsSkipped int64
	cur := make([]int, len(gridCols))
	copy(cur, los)
	for {
		cell := 0
		for d, c := range cur {
			cell += c * g.Stride(d)
		}
		if cnt := g.CellCount(cell); cnt > 0 {
			interior := true
			for i := range cons {
				if !cons[i].interior[cur[cons[i].pos]-los[cons[i].pos]] {
					interior = false
					break
				}
			}
			if interior {
				if aggIdx < 0 {
					// COUNT(*): every row steps 1.0, so the cell's fold is
					// exactly {cnt, cnt, 1, 1} — integer sums are exact.
					out = agg.Merge(out, agg.Partial{Count: cnt, Sum: float64(cnt), Min: 1, Max: 1})
				} else {
					sum, mn, mx := g.CellAgg(aggIdx, cell)
					out = agg.Merge(out, agg.Partial{Count: cnt, Sum: sum, Min: mn, Max: mx})
				}
				cellsMerged++
			} else {
				visited, skipped := boundaryCellVec(b, cons, zps, g, cell, &out)
				boundaryRows += visited
				runsSkipped += skipped
			}
		}
		d := len(cur) - 1
		for d >= 0 {
			cur[d]++
			if cur[d] <= his[d] {
				break
			}
			cur[d] = los[d]
			d--
		}
		if d < 0 {
			break
		}
	}

	// RowsScanned/boundary_rows count only rows actually gathered; runs
	// dropped by zone predicates surface as skipped blocks, mirroring
	// the full-scan path's accounting.
	e.countRows(boundaryRows)
	e.countBoundaryRows(boundaryRows)
	e.countBlocks(0, runsSkipped)
	e.countCellsMerged(cellsMerged)
	if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.boxagg", "table", b.q.Tables[0],
			"cells_merged", cellsMerged, "boundary_rows", boundaryRows,
			"boundary_runs_skipped", runsSkipped)
	}
	return out, true, nil
}

// boundaryCellVec folds one boundary cell's posting list block-style:
// the ascending list is cut into per-physical-block runs, runs whose
// block a zone predicate proves empty of qualifying rows are dropped
// whole (each counted as one skipped block), and surviving runs compact
// a selection vector one constraint at a time — keeping rows with
// Violation in (iv.Lo, iv.Hi], exactly the per-dimension test
// region.Contains performs, and cons covers every query dimension for
// eligible queries. Skipped rows are rows that test would have rejected,
// so survivors — exactly the cell's rows inside the region — step the
// aggregate in posting-list order.
func boundaryCellVec(b *binding, cons []boxConstraint, zps []zonePred, g *index.Grid, cell int, out *agg.Partial) (visited, skipped int64) {
	var buf [blockRows]int32
	g.PostingRuns(cell, blockRows, func(bi int, rows []int32) {
		if blockSkippable(zps, bi) {
			skipped++
			return
		}
		visited += int64(len(rows))
		// A run never crosses a block, so it fits the block buffer.
		sel := buf[:len(rows)]
		copy(sel, rows)
		for i := range cons {
			if len(sel) == 0 {
				break
			}
			c := &cons[i]
			k := 0
			for _, r := range sel {
				v := c.dim.Violation(c.vec[r])
				sel[k] = r
				k += b2i(v > c.iv.Lo && v <= c.iv.Hi)
			}
			sel = sel[:k]
		}
		if b.aggTbl >= 0 {
			for _, r := range sel {
				b.spec.StepValue(out, b.aggVec[r])
			}
		} else {
			for range sel {
				b.spec.StepValue(out, 1.0)
			}
		}
	})
	return visited, skipped
}
