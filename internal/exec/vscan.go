package exec

import (
	"log/slog"
	"math"
	"strings"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// This file is the block-vectorized scan path — the engine's only
// execution path. Its oracle is NaiveAggregate: filter chains keep
// exactly the rows the oracle's per-row reject tests keep (including
// NaN behavior), so COUNT, MIN and MAX match it exactly (a zero
// extreme up to its sign) and SUM up to float association
// (vscan_test.go checks both). The fold itself is deterministic: blocks
// are visited in ascending row order and the finalize fold steps the
// aggregate in tuple order on a chunk grid fixed by the input size, so
// SUM bits do not depend on the worker count. The work is shaped for
// speed: per-block selection vectors compacted one predicate at a
// time, zone maps that skip blocks which provably cannot contain a
// candidate, scan-level semi-join pushdown, and pre-sized join hash
// tables.
//
// On zone-pruned full scans, blocks whose every row provably fails the
// region's *lower* bound are dropped at scan time (two-sided
// pruneInterval hulls); the per-row filters enforce only the upper
// bound, and finalize rejects the remaining lower-bound misses per
// tuple.

// localDim is one select dimension local to the scanned table: rows
// with Violation(v) > hi (the region's upper bound on the dimension)
// cannot qualify anywhere in the region and are dropped at scan time.
// lo carries the region's lower bound for zone-map pruning only — the
// per-row filters never use it (finalize enforces it per tuple).
type localDim struct {
	dim *relq.Dimension
	vec []float64
	ord int
	hi  float64
	lo  float64
}

// localDimsFor collects table ti's local select dimensions.
func localDimsFor(b *binding, region relq.Region, ti int) []localDim {
	var locals []localDim
	for _, sd := range b.selDims {
		if sd.tbl == ti {
			locals = append(locals, localDim{
				dim: sd.dim, vec: sd.vec, ord: sd.ord,
				hi: region[sd.di].Hi, lo: region[sd.di].Lo,
			})
		}
	}
	return locals
}

// scanDrive is one candidate driving interval: a fixed range or a
// single-interval select-dimension region mapped onto column values.
type scanDrive struct {
	ord    int
	lo, hi float64
}

// scanDrives collects table ti's driving intervals. empty=true means
// some select dimension admits no values at all — the scan returns no
// candidates without touching the table.
func scanDrives(b *binding, region relq.Region, ti int) (drives []scanDrive, empty bool) {
	ranges := b.ranges[ti]
	for i := range ranges {
		if !math.IsInf(ranges[i].lo, -1) || !math.IsInf(ranges[i].hi, 1) {
			drives = append(drives, scanDrive{ord: ranges[i].ord, lo: ranges[i].lo, hi: ranges[i].hi})
		}
	}
	for _, sd := range b.selDims {
		if sd.tbl != ti {
			continue
		}
		ivs := valueIntervals(sd.dim, region[sd.di])
		if len(ivs) == 0 {
			return nil, true // dimension admits nothing
		}
		if len(ivs) == 1 {
			drives = append(drives, scanDrive{ord: sd.ord, lo: ivs[0].Lo, hi: ivs[0].Hi})
		}
	}
	return drives, false
}

// pickIndexDrive selects the most selective driving interval and, when
// it narrows the table to at most half its rows, returns the matching
// candidate rows from the sorted index (in value order, NaN rows
// last). It also returns every drive's candidate count from the sorted
// indexes (margs, aligned with drives; rows in the interval plus the
// column's NaN rows): the per-column *marginal* selectivities the workload
// statistics learn from, already computed here as a byproduct of access-
// path selection.
//
// One layout-aware refinement: when the table is clustered over the
// best drive's column (single-column or Z-order interleave) with at
// most a sub-block append tail, a moderately selective drive (more
// than n/8 rows) stays on the zone-pruned full-scan path instead of
// the index. The clustered layout makes zone maps drop roughly the
// same rows the index would, through dense block kernels instead of
// per-row gathers — and on a Z-order layout the full scan prunes on
// *both* interleaved axes where the index can use only one. Clearly
// narrow drives (<= n/8) still take the index. Both scan paths share
// this choice.
func (e *Engine) pickIndexDrive(t *data.Table, n int, drives []scanDrive) ([]int32, bool, []int, error) {
	if len(drives) == 0 {
		return nil, false, nil, nil
	}
	margs := make([]int, len(drives))
	bestSize := n + 1
	var best *sortedIdx
	var bestDrive scanDrive
	for i, d := range drives {
		ix, err := e.sortedIndex(t, d.ord)
		if err != nil {
			return nil, false, nil, err
		}
		sz := ix.rangeSize(d.lo, d.hi)
		margs[i] = sz
		if sz < bestSize {
			bestSize, best, bestDrive = sz, ix, d
		}
	}
	if best != nil && bestSize <= n/2 && !e.preferClusteredScan(t, bestDrive, bestSize, n) {
		return best.rangeRows(bestDrive.lo, bestDrive.hi), true, margs, nil
	}
	return nil, false, margs, nil
}

// preferClusteredScan reports whether a moderately-selective best drive
// should stay on the full-scan path because the table's clustered
// layout covers its column (see pickIndexDrive).
func (e *Engine) preferClusteredScan(t *data.Table, d scanDrive, size, n int) bool {
	if size*8 <= n {
		return false // clearly narrow: the index wins outright
	}
	if t.ClusterTail() >= blockRows {
		return false // degraded layout: tail blocks are never skippable
	}
	cols, _ := t.ClusterSpec()
	if len(cols) == 0 {
		return false
	}
	name := t.Schema().Columns[d.ord].Name
	for _, c := range cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// semiPred is a scan-level semi-join pushdown predicate: keep only rows
// whose scaled join key appears in the already-scanned probe side's key
// set. Only attached below the join when the static attach plan proves
// the dropped rows could never emit (see attachPlan).
type semiPred struct {
	set  *f64Set
	vec  []float64
	coef float64
}

// blockFilter is the compiled predicate chain applied to each block's
// selection vector in a fixed predicate order (ranges, strings,
// locals); the chain is a conjunction, so the kept set is
// order-independent, and each filter preserves row order.
type blockFilter struct {
	ranges []rangeBind
	strs   []stringBind
	locals []localDim
	semi   *semiPred
}

func (f *blockFilter) apply(sel []int32) []int32 {
	return f.applySkip(sel, 0, 0)
}

// applySkip runs the chain with the first skipR range filters and
// skipL local filters omitted (already applied by a dense kernel). The
// chain is a conjunction of order-preserving filters, so the kept set
// and its ascending order are independent of which predicate ran first.
func (f *blockFilter) applySkip(sel []int32, skipR, skipL int) []int32 {
	for i := skipR; i < len(f.ranges); i++ {
		if len(sel) == 0 {
			return sel
		}
		sel = filterRange(sel, f.ranges[i].vec, f.ranges[i].lo, f.ranges[i].hi)
	}
	for i := range f.strs {
		if len(sel) == 0 {
			return sel
		}
		sel = filterStringIn(sel, f.strs[i].vec, f.strs[i].set)
	}
	for i := skipL; i < len(f.locals); i++ {
		if len(sel) == 0 {
			return sel
		}
		sel = filterViolation(sel, f.locals[i].dim, f.locals[i].vec, f.locals[i].hi)
	}
	if f.semi != nil && len(sel) > 0 {
		sel = filterSemi(sel, f.semi.vec, f.semi.coef, f.semi.set)
	}
	return sel
}

// applyDense filters the contiguous rows [lo, hi) of the table: the
// first numeric predicate runs as a dense kernel straight over its
// column stride (emitting row ids directly — no identity-fill +
// gather round trip) and the rest compact the resulting selection
// vector as usual. buf must have blockRows capacity.
func (f *blockFilter) applyDense(buf []int32, lo, hi int) []int32 {
	switch {
	case len(f.ranges) > 0:
		sel := filterRangeDense(buf, f.ranges[0].vec, lo, hi, f.ranges[0].lo, f.ranges[0].hi)
		return f.applySkip(sel, 1, 0)
	case len(f.locals) > 0:
		sel := filterViolationDense(buf, f.locals[0].dim, f.locals[0].vec, lo, hi, f.locals[0].hi)
		return f.applySkip(sel, 0, 1)
	default:
		sel := buf[:0]
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		return f.applySkip(sel, 0, 0)
	}
}

// observeDensity records one block's post-filter selection density into
// the attached observer's histogram (no-op when detached).
func observeDensity(eo *engineObs, kept, blockLen int) {
	if eo == nil || blockLen == 0 {
		return
	}
	eo.selDensity.Observe(float64(kept) / float64(blockLen))
}

// zonePreds compiles the block-skip tests for a full scan: one per
// fixed range with a finite bound, one per local select dimension's
// conservative value hull. String-set and semi predicates never prune —
// zone maps only summarize numeric order.
func (e *Engine) zonePreds(t *data.Table, f *blockFilter) []zonePred {
	var zps []zonePred
	for i := range f.ranges {
		rb := &f.ranges[i]
		if math.IsInf(rb.lo, -1) && math.IsInf(rb.hi, 1) {
			continue
		}
		zps = append(zps, zonePred{zm: e.zoneMapFor(t, rb.ord, rb.vec), lo: rb.lo, hi: rb.hi, ord: rb.ord})
	}
	for i := range f.locals {
		ld := &f.locals[i]
		lo, hi := pruneInterval(ld.dim, relq.ViolInterval{Lo: ld.lo, Hi: ld.hi})
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			continue
		}
		zps = append(zps, zonePred{zm: e.zoneMapFor(t, ld.ord, ld.vec), lo: lo, hi: hi, ord: ld.ord})
	}
	return zps
}

// vscanTable returns the candidate row indexes of table ti: rows passing
// every fixed filter on the table, every local select dimension's
// region upper bound and, when semi is set, the semi-join key set.
//
// Access path selection mirrors a DBMS with secondary indexes: the most
// selective applicable range condition drives candidate generation
// through a sorted index (pickIndexDrive); otherwise the table is
// scanned block-at-a-time. On the full-scan path blocks failing a zone
// test are skipped without touching rows — RowsScanned counts only rows
// in visited blocks (skipped blocks are reported via BlocksSkipped),
// keeping the rows-touched statistics honest about physical work.
func (e *Engine) vscanTable(b *binding, region relq.Region, ti int, semi *semiPred) ([]int32, error) {
	t := b.tables[ti]
	n := t.NumRows()
	drives, empty := scanDrives(b, region, ti)
	if empty {
		return nil, nil
	}
	f := &blockFilter{ranges: b.ranges[ti], strs: b.strFlts[ti], locals: localDimsFor(b, region, ti), semi: semi}
	eo := e.obsState.Load()

	candidates, indexed, margs, err := e.pickIndexDrive(t, n, drives)
	if err != nil {
		return nil, err
	}
	if indexed {
		e.countRows(int64(len(candidates)))
		if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
			eo.o.Debug("engine.scan", "table", b.q.Tables[ti],
				"rows", int64(len(candidates)), "full_scan", false)
		}
		out := e.blockFilterRows(candidates, f, eo)
		if e.autoCluster.Load() {
			e.wstats.observe(tableKey(t), n, drives, margs)
		}
		return out, nil
	}

	zps := e.zonePreds(t, f)
	out, rowsScanned, blocksScanned, axisSkips := e.blockScan(n, zps, f, eo)
	var blocksSkipped int64
	for _, s := range axisSkips {
		blocksSkipped += s
	}
	e.countRows(rowsScanned)
	e.countBlocks(blocksScanned, blocksSkipped)
	if blocksSkipped > 0 {
		e.countZoneAxisSkips(t, zps, axisSkips)
	}
	// A clustered table whose unsorted append tail has outgrown one
	// block runs in a degraded regime: the sorted prefix still prunes
	// but every tail block spans the whole domain. Surface it in stats
	// instead of letting it look like silently-stale zone maps.
	if t.ClusterTail() >= blockRows {
		e.countDegradedScans(1)
	}
	if e.autoCluster.Load() {
		e.wstats.observe(tableKey(t), n, drives, margs)
	}
	if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.scan", "table", b.q.Tables[ti],
			"rows", rowsScanned, "full_scan", true,
			"blocks_scanned", blocksScanned, "blocks_skipped", blocksSkipped)
	}
	return out, nil
}

// tableKey is the canonical (lower-cased) catalog key of a table.
func tableKey(t *data.Table) string { return strings.ToLower(t.Name()) }

// blockScan runs the zone-pruned block scan over [0, n) in ascending
// row order. Large tables fan blocks out to the worker pool in
// contiguous chunks concatenated in chunk order, so the output matches
// the sequential scan exactly. axisSkips is aligned with zps: skipped
// blocks are attributed to the first predicate that fired (skipAxis),
// giving per-axis pruning visibility on interleaved layouts.
func (e *Engine) blockScan(n int, zps []zonePred, f *blockFilter, eo *engineObs) (out []int32, rowsScanned, blocksScanned int64, axisSkips []int64) {
	nb := numBlocks(n)
	w := e.workers()
	if w == 1 || n < parallelThreshold {
		return scanBlockRange(0, nb, n, zps, f, eo)
	}
	parts := chunks(nb, w)
	outs := make([][]int32, len(parts))
	var rows, scanned []int64
	rows = make([]int64, len(parts))
	scanned = make([]int64, len(parts))
	skips := make([][]int64, len(parts))
	done := make(chan struct{})
	for ci := range parts {
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			outs[ci], rows[ci], scanned[ci], skips[ci] =
				scanBlockRange(parts[ci][0], parts[ci][1], n, zps, f, eo)
		}(ci)
	}
	for range parts {
		<-done
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out = make([]int32, 0, total)
	axisSkips = make([]int64, len(zps))
	for ci := range outs {
		out = append(out, outs[ci]...)
		rowsScanned += rows[ci]
		blocksScanned += scanned[ci]
		for ai, s := range skips[ci] {
			axisSkips[ai] += s
		}
	}
	return out, rowsScanned, blocksScanned, axisSkips
}

// scanBlockRange scans blocks [b0, b1) of an n-row table.
func scanBlockRange(b0, b1, n int, zps []zonePred, f *blockFilter, eo *engineObs) (out []int32, rows, scanned int64, axisSkips []int64) {
	var buf [blockRows]int32
	out = make([]int32, 0, 64)
	axisSkips = make([]int64, len(zps))
	for bi := b0; bi < b1; bi++ {
		lo := bi * blockRows
		hi := min(lo+blockRows, n)
		if ax := skipAxis(zps, bi); ax >= 0 {
			axisSkips[ax]++
			continue
		}
		scanned++
		rows += int64(hi - lo)
		sel := f.applyDense(buf[:0], lo, hi)
		observeDensity(eo, len(sel), hi-lo)
		out = append(out, sel...)
	}
	return out, rows, scanned, axisSkips
}

// blockFilterRows applies the filter chain to an explicit candidate
// list (the index path) in blockRows-sized gather chunks, preserving
// candidate order. Large lists split across the worker pool with
// chunk-ordered concatenation.
func (e *Engine) blockFilterRows(cands []int32, f *blockFilter, eo *engineObs) []int32 {
	w := e.workers()
	if w == 1 || len(cands) < parallelThreshold {
		return gatherFilterRange(cands, 0, len(cands), f, eo)
	}
	parts := chunks(len(cands), w)
	outs := make([][]int32, len(parts))
	done := make(chan struct{})
	for ci := range parts {
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			outs[ci] = gatherFilterRange(cands, parts[ci][0], parts[ci][1], f, eo)
		}(ci)
	}
	for range parts {
		<-done
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]int32, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// gatherFilterRange filters cands[lo:hi] block by block.
func gatherFilterRange(cands []int32, lo, hi int, f *blockFilter, eo *engineObs) []int32 {
	var buf [blockRows]int32
	out := make([]int32, 0, hi-lo)
	for blo := lo; blo < hi; blo += blockRows {
		bhi := min(blo+blockRows, hi)
		sel := buf[:bhi-blo]
		copy(sel, cands[blo:bhi])
		sel = f.apply(sel)
		observeDensity(eo, len(sel), bhi-blo)
		out = append(out, sel...)
	}
	return out
}

// planEdge records, for one table, the join edge the attach loop will
// use when that table is attached. pickNext depends only on the
// binding's edge lists and the attached set — never on candidate
// contents — so the plan is computable before any table is scanned.
type planEdge struct {
	equi     *equiBind
	probeTbl int // attached-side table of the equi edge; -1 otherwise
}

// attachPlan simulates join()'s attach order without candidates and
// returns each table's planned edge. Used to prove scan-level semi-join
// pushdown sound: filtering table ti's candidates by the key set of an
// earlier-scanned table is only allowed when ti's planned attach edge
// is exactly the equi edge to that table — then every dropped row would
// have matched zero probes and the tuple stream is unchanged.
func (e *Engine) attachPlan(b *binding) []planEdge {
	nt := len(b.tables)
	plan := make([]planEdge, nt)
	for i := range plan {
		plan[i] = planEdge{probeTbl: -1}
	}
	if nt == 1 {
		return plan
	}
	attached := map[int]int{0: 0}
	for len(attached) < nt {
		next, edge := e.pickNext(b, attached)
		if next < 0 {
			for ti := 0; ti < nt; ti++ {
				if _, ok := attached[ti]; !ok {
					next = ti
					break
				}
			}
		}
		if edge != nil && edge.equi != nil {
			probe := edge.equi.ltbl
			if edge.flip {
				probe = edge.equi.rtbl
			}
			plan[next] = planEdge{equi: edge.equi, probeTbl: probe}
		}
		attached[next] = len(attached)
	}
	return plan
}

// semiPredFor builds the scan-level pushdown predicate for table ti, or
// nil when pushdown is unsound or unprofitable. Requirements: ti's
// planned attach edge is an equi edge whose probe side was already
// scanned (table index < ti), and the probe candidate set is at least
// 4x smaller than ti's row count (otherwise the key-set probe costs
// more than it saves).
func semiPredFor(b *binding, plan []planEdge, cands [][]int32, ti int) *semiPred {
	if plan == nil || plan[ti].equi == nil {
		return nil
	}
	probe := plan[ti].probeTbl
	if probe < 0 || probe >= ti {
		return nil
	}
	prev := cands[probe]
	if len(prev)*4 > b.tables[ti].NumRows() {
		return nil
	}
	ej := plan[ti].equi
	var pvec, bvec []float64
	var pc, bc float64
	if ej.ltbl == probe {
		pvec, pc, bvec, bc = ej.lvec, ej.lc, ej.rvec, ej.rc
	} else {
		pvec, pc, bvec, bc = ej.rvec, ej.rc, ej.lvec, ej.lc
	}
	set := newF64Set(len(prev))
	for _, r := range prev {
		set.add(pc * pvec[r])
	}
	set.freeze()
	return &semiPred{set: set, vec: bvec, coef: bc}
}

// finalizeVec verifies every join condition and the region on each
// tuple and folds the qualifying tuples into the aggregate. It runs on
// the parallelFold chunk grid (boundaries fixed by the tuple count,
// fixed merge order), each chunk processed in blockRows-sized
// sub-blocks whose selection vector is compacted one condition at a
// time. Qualifying tuples step the aggregate in ascending tuple order,
// so SUM bits are identical for every worker count.
func (e *Engine) finalizeVec(b *binding, region relq.Region, tuples []int32, order []int) (agg.Partial, error) {
	stride := len(order)
	if stride == 0 {
		return agg.Zero(), nil
	}
	pos := make([]int, len(b.tables)) // table index -> slot in tuple
	for slot, ti := range order {
		pos[ti] = slot
	}
	ntup := len(tuples) / stride
	e.countTuples(int64(ntup))

	part := e.parallelFold(ntup, func(lo, hi int) agg.Partial {
		p := agg.Zero()
		var buf [blockRows]int
		for blo := lo; blo < hi; blo += blockRows {
			bhi := min(blo+blockRows, hi)
			sel := buf[:0]
			for t := blo; t < bhi; t++ {
				sel = append(sel, t)
			}
			for i := range b.equiJoins {
				ej := &b.equiJoins[i]
				ls, rs := pos[ej.ltbl], pos[ej.rtbl]
				k := 0
				for _, t := range sel {
					row := tuples[t*stride:]
					sel[k] = t
					if ej.lc*ej.lvec[row[ls]] == ej.rc*ej.rvec[row[rs]] {
						k++
					}
				}
				sel = sel[:k]
				if len(sel) == 0 {
					break
				}
			}
			for i := range b.selDims {
				if len(sel) == 0 {
					break
				}
				sd := &b.selDims[i]
				iv := region[sd.di]
				slot := pos[sd.tbl]
				k := 0
				for _, t := range sel {
					v := sd.dim.Violation(sd.vec[tuples[t*stride+slot]])
					sel[k] = t
					if v > iv.Lo && v <= iv.Hi {
						k++
					}
				}
				sel = sel[:k]
			}
			for i := range b.joinDims {
				if len(sel) == 0 {
					break
				}
				jd := &b.joinDims[i]
				iv := region[jd.di]
				ls, rs := pos[jd.ltbl], pos[jd.rtbl]
				k := 0
				for _, t := range sel {
					row := tuples[t*stride:]
					v := jd.dim.JoinViolation(jd.lvec[row[ls]], jd.rvec[row[rs]])
					sel[k] = t
					if v > iv.Lo && v <= iv.Hi {
						k++
					}
				}
				sel = sel[:k]
			}
			if b.aggTbl >= 0 {
				slot := pos[b.aggTbl]
				for _, t := range sel {
					b.spec.StepValue(&p, b.aggVec[tuples[t*stride+slot]])
				}
			} else {
				for _, t := range sel {
					_ = t
					b.spec.StepValue(&p, 1.0)
				}
			}
		}
		return p
	})
	return part, nil
}
