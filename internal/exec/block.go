package exec

import (
	"math"
	"strings"

	"acquire/internal/data"
	"acquire/internal/relq"
)

// blockRows is the unit of vectorized execution: scans, gather-filters
// and the finalize fold all process rows in fixed blocks of this many
// entries, compacting a reusable selection vector per predicate instead
// of running one branchy multi-predicate loop per row. 1024 int32 row
// ids (4 KiB) plus one float64 column block (8 KiB) stay comfortably
// inside L1.
const blockRows = 1024

// zoneMap holds per-block min/max summaries of one column, aligned to
// blockRows-row blocks: block bi covers rows [bi*blockRows,
// (bi+1)*blockRows). A block whose [min, max] provably cannot satisfy a
// range predicate is skipped without touching any row. nan flags blocks
// containing at least one NaN: the scan path keeps NaN rows for fixed
// ranges (`v < lo || v > hi` is false for NaN) and for select
// dimensions (Violation(NaN) > hi is false), so a NaN-bearing block is
// never skippable.
//
// All-NaN blocks get {min:+Inf, max:-Inf}; the nan flag already makes
// them unskippable, and the degenerate interval keeps comparisons safe.
type zoneMap struct {
	mins []float64
	maxs []float64
	nan  []bool
}

// numBlocks returns the number of blockRows-sized blocks covering n rows.
func numBlocks(n int) int {
	return (n + blockRows - 1) / blockRows
}

// buildZoneMap summarizes a column vector into per-block min/max/NaN.
func buildZoneMap(vec []float64) *zoneMap {
	nb := numBlocks(len(vec))
	zm := &zoneMap{
		mins: make([]float64, nb),
		maxs: make([]float64, nb),
		nan:  make([]bool, nb),
	}
	for bi := 0; bi < nb; bi++ {
		lo := bi * blockRows
		hi := min(lo+blockRows, len(vec))
		mn, mx, hasNaN := math.Inf(1), math.Inf(-1), false
		for _, v := range vec[lo:hi] {
			if v != v {
				hasNaN = true
				continue
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		zm.mins[bi], zm.maxs[bi], zm.nan[bi] = mn, mx, hasNaN
	}
	return zm
}

// zoneMapFor returns the cached zone map for a column, building it on
// first use. Zone maps live alongside the column and sorted-index
// caches under the same table-identity scheme: a hit requires the exact
// *Table the map was built from at the same column length, so both
// appends and same-size catalog Replaces (auto-clustering re-sorts)
// rebuild, and InvalidateTable drops the entry with the rest of the
// table's derived state. vec must be the column's current vector (as
// resolved through numericColumn), so the build never re-fetches.
func (e *Engine) zoneMapFor(t *data.Table, ord int, vec []float64) *zoneMap {
	key := colKey{table: strings.ToLower(t.Name()), ord: ord}
	e.mu.RLock()
	ent, ok := e.zones[key]
	e.mu.RUnlock()
	if ok && ent.src == t && ent.n == len(vec) {
		return ent.zm
	}
	zm := buildZoneMap(vec)
	e.mu.Lock()
	e.zones[key] = zoneEntry{zm: zm, src: t, n: len(vec)}
	e.mu.Unlock()
	return zm
}

// zonePred is one block-skip test: skip a block when its zone interval
// provably misses [lo, hi] and the block holds no NaN (NaN rows pass
// the scan predicates this prunes for, so they pin their block). ord
// records the column ordinal the predicate prunes on, so skips can be
// attributed per axis — the visibility that tells a Z-order layout's
// operator that *both* interleaved dimensions are earning their keep.
type zonePred struct {
	zm     *zoneMap
	lo, hi float64
	ord    int
}

// skip reports whether block bi can be skipped outright.
func (zp *zonePred) skip(bi int) bool {
	return !zp.zm.nan[bi] && (zp.zm.maxs[bi] < zp.lo || zp.zm.mins[bi] > zp.hi)
}

// skipAxis returns the index (into zps) of the first predicate proving
// block bi empty of candidates, or -1 when the block must be visited.
// Attribution goes to the first firing predicate: a block failing on
// several axes counts once, under the earliest axis in predicate order.
func skipAxis(zps []zonePred, bi int) int {
	for i := range zps {
		if zps[i].skip(bi) {
			return i
		}
	}
	return -1
}

// blockSkippable reports whether any zone predicate proves block bi
// empty of candidates.
func blockSkippable(zps []zonePred, bi int) bool {
	return skipAxis(zps, bi) >= 0
}

// prunePad widens a finite pruning endpoint by a relative epsilon so
// float rounding between the violation arithmetic ((v-Bound)*(100/W))
// and the inverse bound arithmetic (Bound + hi*(W/100)) can only widen
// the admitted interval, never skip a block holding a qualifying row.
// Mirrors the box-aggregate kernel's padding discipline.
func prunePad(lo, hi float64) (float64, float64) {
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
	return lo, hi
}

// pruneInterval returns the conservative value interval a select
// dimension admits under a region interval — the hull used for
// zone-map block skipping on full scans.
//
// The Hi side is what the scan's verify step enforces (rows with
// Violation(v) > iv.Hi are rejected at scan time), so it always prunes.
// The Lo side is enforced only later — per surviving tuple, in
// finalize's `v > iv.Lo && v <= iv.Hi` check and Materialize's
// region.Contains — but that is exactly what makes Lo pruning sound for
// the monotone kinds: a block whose every value has Violation <= iv.Lo
// contributes no tuple that survives finalize, so dropping it cannot
// change any aggregate, violation stream, or materialized result. For
// SelectLE violation grows with v, so iv.Lo > 0 yields the sound lower
// bound v > BoundAt(iv.Lo); SelectGE mirrors it. SelectEQ's admitted
// set under iv.Lo > 0 is a band with a hole in the middle — not a
// single interval — so only its outer (Hi) band prunes.
//
// Candidate lists on zone-pruned full scans may therefore omit rows
// that pass the scan's own per-row filters but could never reach the
// final result; surviving tuples, their order, and every aggregate bit
// are unchanged.
func pruneInterval(d *relq.Dimension, iv relq.ViolInterval) (float64, float64) {
	lo, hi := math.Inf(-1), math.Inf(1)
	switch d.Kind {
	case relq.SelectLE:
		hi = d.BoundAt(iv.Hi)
		if iv.Lo > 0 {
			lo = d.BoundAt(iv.Lo)
		}
	case relq.SelectGE:
		lo = d.BoundAt(iv.Hi)
		if iv.Lo > 0 {
			hi = d.BoundAt(iv.Lo)
		}
	case relq.SelectEQ:
		band := d.BoundAt(iv.Hi)
		lo, hi = d.Bound-band, d.Bound+band
	default:
		return lo, hi
	}
	return prunePad(lo, hi)
}

// The filter primitives below compact a selection vector in place in
// SIMD-friendly shape (the gonum/asm idiom, pure Go): the surviving row
// id is stored unconditionally and the output cursor advances by a
// branchless boolean-to-int increment (`k += b2i(keep)`), so the store
// path compiles to compare + SETcc + add with no data-dependent branch
// for the predictor to miss on mixed-selectivity blocks. Dense variants
// (filterRangeDense / filterViolationDense) run the chain's first
// predicate straight over a contiguous column stride, emitting row ids
// without the identity-fill + gather round trip. The keep conditions
// are the exact negations of the per-row reject conditions
// NaiveAggregate applies — including their NaN behavior — so a filter
// chain keeps precisely the rows the oracle keeps, in row order.

// b2i converts a predicate result to an output-cursor increment. The
// compiler lowers it to SETcc, keeping compaction loops branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filterRange keeps rows with lo <= vec[r] <= hi, NaN included (the
// scan's reject test `v < lo || v > hi` is false for NaN).
func filterRange(sel []int32, vec []float64, lo, hi float64) []int32 {
	k := 0
	for _, r := range sel {
		v := vec[r]
		sel[k] = r
		k += b2i(!(v < lo || v > hi))
	}
	return sel[:k]
}

// filterRangeDense filters the contiguous rows [lo, hi) of a column
// against [plo, phi], appending surviving row ids into buf — the dense
// first-predicate kernel of a full block scan. The main loop runs
// 8-wide over a fixed stride: each lane is an independent load +
// compare + unconditional store + SETcc advance, the shape
// auto-vectorizers and wide cores both like.
func filterRangeDense(buf []int32, vec []float64, lo, hi int, plo, phi float64) []int32 {
	sel := buf[:cap(buf)]
	col := vec[lo:hi]
	base := int32(lo)
	k, i := 0, 0
	for ; i+8 <= len(col); i += 8 {
		v0, v1, v2, v3 := col[i], col[i+1], col[i+2], col[i+3]
		v4, v5, v6, v7 := col[i+4], col[i+5], col[i+6], col[i+7]
		r := base + int32(i)
		sel[k] = r
		k += b2i(!(v0 < plo || v0 > phi))
		sel[k] = r + 1
		k += b2i(!(v1 < plo || v1 > phi))
		sel[k] = r + 2
		k += b2i(!(v2 < plo || v2 > phi))
		sel[k] = r + 3
		k += b2i(!(v3 < plo || v3 > phi))
		sel[k] = r + 4
		k += b2i(!(v4 < plo || v4 > phi))
		sel[k] = r + 5
		k += b2i(!(v5 < plo || v5 > phi))
		sel[k] = r + 6
		k += b2i(!(v6 < plo || v6 > phi))
		sel[k] = r + 7
		k += b2i(!(v7 < plo || v7 > phi))
	}
	for ; i < len(col); i++ {
		v := col[i]
		sel[k] = base + int32(i)
		k += b2i(!(v < plo || v > phi))
	}
	return sel[:k]
}

// filterStringIn keeps rows whose string value is in the set. (Map
// probes keep a branch — hashing dominates here anyway.)
func filterStringIn(sel []int32, vec []string, set map[string]struct{}) []int32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		if _, ok := set[vec[r]]; ok {
			k++
		}
	}
	return sel[:k]
}

// filterViolation keeps rows with Violation(vec[r]) <= hi (NaN values
// pass: their violation is NaN and NaN > hi is false, matching the
// row-at-a-time check). The per-kind loops inline the exact float
// expressions of relq.Dimension.Violation — same operations, same
// order — so results are bit-identical to calling it per row.
func filterViolation(sel []int32, d *relq.Dimension, vec []float64, hi float64) []int32 {
	k := 0
	switch d.Kind {
	case relq.SelectLE:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			v := vec[r]
			sel[k] = r
			k += b2i(!(v > bound && (v-bound)*scale > hi))
		}
	case relq.SelectGE:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			v := vec[r]
			sel[k] = r
			k += b2i(!(v < bound && (bound-v)*scale > hi))
		}
	case relq.SelectEQ:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			sel[k] = r
			k += b2i(!(math.Abs(vec[r]-bound)*scale > hi))
		}
	default:
		for _, r := range sel {
			sel[k] = r
			k += b2i(!(d.Violation(vec[r]) > hi))
		}
	}
	return sel[:k]
}

// filterViolationDense is filterViolation's dense first-predicate form:
// it evaluates the dimension's violation over the contiguous rows
// [lo, hi) of its column, appending survivors into buf. Same exact
// float expressions, 8-wide strides for the two monotone kinds.
func filterViolationDense(buf []int32, d *relq.Dimension, vec []float64, lo, hi int, vhi float64) []int32 {
	sel := buf[:cap(buf)]
	col := vec[lo:hi]
	base := int32(lo)
	k, i := 0, 0
	switch d.Kind {
	case relq.SelectLE:
		bound, scale := d.Bound, 100/d.Width
		for ; i+8 <= len(col); i += 8 {
			r := base + int32(i)
			for j := 0; j < 8; j++ {
				v := col[i+j]
				sel[k] = r + int32(j)
				k += b2i(!(v > bound && (v-bound)*scale > vhi))
			}
		}
		for ; i < len(col); i++ {
			v := col[i]
			sel[k] = base + int32(i)
			k += b2i(!(v > bound && (v-bound)*scale > vhi))
		}
	case relq.SelectGE:
		bound, scale := d.Bound, 100/d.Width
		for ; i+8 <= len(col); i += 8 {
			r := base + int32(i)
			for j := 0; j < 8; j++ {
				v := col[i+j]
				sel[k] = r + int32(j)
				k += b2i(!(v < bound && (bound-v)*scale > vhi))
			}
		}
		for ; i < len(col); i++ {
			v := col[i]
			sel[k] = base + int32(i)
			k += b2i(!(v < bound && (bound-v)*scale > vhi))
		}
	case relq.SelectEQ:
		bound, scale := d.Bound, 100/d.Width
		for ; i < len(col); i++ {
			sel[k] = base + int32(i)
			k += b2i(!(math.Abs(col[i]-bound)*scale > vhi))
		}
	default:
		for ; i < len(col); i++ {
			sel[k] = base + int32(i)
			k += b2i(!(d.Violation(col[i]) > vhi))
		}
	}
	return sel[:k]
}

// filterSemi keeps rows whose scaled join key appears in the probe key
// set — the scan-level semi-join pushdown. NaN keys are dropped: a NaN
// key can never match any probe key in the hash join either.
func filterSemi(sel []int32, vec []float64, coef float64, set *f64Set) []int32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(set.contains(coef * vec[r]))
	}
	return sel[:k]
}
