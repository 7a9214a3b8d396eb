package exec

import (
	"fmt"
	"math"
	"sort"

	"acquire/internal/relq"
)

// This file holds the vectorized join machinery: an open-addressed
// float64 key set (semi-join pushdown), an order-preserving grouped
// hash table (the pre-sized equi-join build side), and attachVec, the
// join stage of the scan path.
//
// Both hash structures keep the float64 equality NaiveAggregate's
// equi-join test uses (Go's map semantics for float64 keys): +0 and -0
// are the same key, and a NaN key is unreachable — a build row with a
// NaN key can never match any probe (NaN != NaN), so dropping such
// rows at insert loses no tuple.

// hashF64 mixes the normalized bit pattern of a key (splitmix64-style
// finalizer — cheap and well distributed for the clustered integer-ish
// keys join columns carry).
func hashF64(k float64) uint64 {
	b := math.Float64bits(k)
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b
}

// normKey folds -0 onto +0 so both hash and compare as one key.
func normKey(k float64) float64 {
	if k == 0 {
		return 0
	}
	return k
}

// Join keys are very often small dense integers (generated surrogate
// keys, TPC-H style foreign keys), where a direct-indexed bitmap or
// offset table beats any hash probe by an order of magnitude. Both
// structures therefore carry a dense fast path, taken when every key
// is integral and the key span is modest relative to the key count.

// denseSpanCap bounds the direct-indexed domain (~1M slots) so a
// pathological key range can never balloon memory.
const denseSpanCap = 1 << 20

// denseLimit is the widest integer key span worth direct-indexing for
// n keys: generously sparse (64x) so realistic selective scans over
// surrogate-key domains still qualify, but never above denseSpanCap.
func denseLimit(n int) float64 {
	limit := 64*n + 1024
	if limit > denseSpanCap {
		limit = denseSpanCap
	}
	return float64(limit)
}

// f64Set is an open-addressed membership set over float64 keys. Empty
// slots hold NaN (a value no stored key can be, since NaN keys are
// skipped on add and never match on contains). freeze() may replace
// the probe loop with a direct-indexed bitmap.
type f64Set struct {
	keys []float64
	mask uint64
	// Dense-domain tracking: adds keep (kmin, kmax, allInt) current so
	// freeze can decide eligibility without a rescan.
	n          int
	kmin, kmax float64
	allInt     bool
	dense      []bool
	dmin       float64
}

// newF64Set sizes the table for n keys at <= 50% load.
func newF64Set(n int) *f64Set {
	cap := 8
	for cap < 2*n {
		cap *= 2
	}
	s := &f64Set{
		keys: make([]float64, cap), mask: uint64(cap - 1),
		kmin: math.Inf(1), kmax: math.Inf(-1), allInt: true,
	}
	for i := range s.keys {
		s.keys[i] = math.NaN()
	}
	return s
}

func (s *f64Set) add(k float64) {
	if k != k {
		return // NaN keys are unreachable; don't store them
	}
	k = normKey(k)
	if k != math.Trunc(k) {
		s.allInt = false
	} else {
		if k < s.kmin {
			s.kmin = k
		}
		if k > s.kmax {
			s.kmax = k
		}
		s.n++
	}
	i := hashF64(k) & s.mask
	for {
		cur := s.keys[i]
		if cur != cur {
			s.keys[i] = k
			return
		}
		if cur == k {
			return
		}
		i = (i + 1) & s.mask
	}
}

// freeze switches contains to a direct-indexed bitmap when every added
// key was integral and the span is dense enough. Call after the last
// add; further adds after freeze are not supported.
func (s *f64Set) freeze() {
	if !s.allInt || s.n == 0 {
		return
	}
	span := s.kmax - s.kmin
	if !(span >= 0) || span+1 > denseLimit(s.n) {
		return
	}
	d := make([]bool, int(span)+1)
	for _, k := range s.keys {
		if k == k {
			d[int(k-s.kmin)] = true
		}
	}
	s.dense, s.dmin = d, s.kmin
}

func (s *f64Set) contains(k float64) bool {
	if k != k {
		return false
	}
	k = normKey(k)
	if s.dense != nil {
		i := k - s.dmin
		if !(i >= 0) || i >= float64(len(s.dense)) || i != math.Trunc(i) {
			return false
		}
		return s.dense[int(i)]
	}
	i := hashF64(k) & s.mask
	for {
		cur := s.keys[i]
		if cur != cur {
			return false
		}
		if cur == k {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// f64Groups is a grouped hash table: every distinct key maps to the
// list of build rows carrying it, in build-input order — the per-key
// append order a map[float64][]int32 build produces. Built in two
// passes (count, prefix-sum, fill) into one exact-capacity rows array,
// so nothing grows incrementally.
type f64Groups struct {
	keys []float64 // open-addressed; NaN = empty slot
	mask uint64
	off  []int32 // per slot: start offset into rows
	cnt  []int32 // per slot: group length
	rows []int32 // all build rows, grouped by key, input order within a group
	// Dense mode: keys is nil and slots are indexed directly by
	// int(key - dmin) instead of by hash probe.
	dense bool
	dmin  float64
}

// buildDenseGroups is the direct-indexed build, taken when every key
// is integral over a modest span. Returns nil when ineligible.
func buildDenseGroups(buildRows []int32, vec []float64, coef float64) *f64Groups {
	kmin, kmax := math.Inf(1), math.Inf(-1)
	n := 0
	for _, r := range buildRows {
		k := coef * vec[r]
		if k != k {
			continue // NaN keys dropped, as in the hash build
		}
		if k != math.Trunc(k) {
			return nil
		}
		if k < kmin {
			kmin = k
		}
		if k > kmax {
			kmax = k
		}
		n++
	}
	if n == 0 {
		return nil
	}
	span := kmax - kmin
	if !(span >= 0) || span+1 > denseLimit(n) {
		return nil
	}
	w := int(span) + 1
	g := &f64Groups{dense: true, dmin: kmin, off: make([]int32, w), cnt: make([]int32, w)}
	for _, r := range buildRows {
		if k := coef * vec[r]; k == k {
			g.cnt[int(k-kmin)]++
		}
	}
	run := int32(0)
	for i := range g.off {
		g.off[i] = run
		run += g.cnt[i]
	}
	g.rows = make([]int32, n)
	cur := make([]int32, w)
	copy(cur, g.off)
	for _, r := range buildRows {
		if k := coef * vec[r]; k == k {
			i := int(k - kmin)
			g.rows[cur[i]] = r
			cur[i]++
		}
	}
	return g
}

// buildF64Groups groups buildRows by their scaled key. Rows with NaN
// keys are dropped (unreachable in a Go map, see above).
func buildF64Groups(buildRows []int32, vec []float64, coef float64) *f64Groups {
	if g := buildDenseGroups(buildRows, vec, coef); g != nil {
		return g
	}
	cap := 8
	for cap < 2*len(buildRows) {
		cap *= 2
	}
	g := &f64Groups{
		keys: make([]float64, cap),
		mask: uint64(cap - 1),
		off:  make([]int32, cap),
		cnt:  make([]int32, cap),
	}
	for i := range g.keys {
		g.keys[i] = math.NaN()
	}
	// Pass 1: count group sizes.
	total := 0
	for _, r := range buildRows {
		k := coef * vec[r]
		if k != k {
			continue
		}
		k = normKey(k)
		i := hashF64(k) & g.mask
		for {
			cur := g.keys[i]
			if cur != cur {
				g.keys[i] = k
				break
			}
			if cur == k {
				break
			}
			i = (i + 1) & g.mask
		}
		g.cnt[i]++
		total++
	}
	// Prefix-sum offsets, then fill in input order.
	run := int32(0)
	for i := range g.off {
		g.off[i] = run
		run += g.cnt[i]
	}
	g.rows = make([]int32, total)
	cur := make([]int32, len(g.off))
	copy(cur, g.off)
	for _, r := range buildRows {
		k := coef * vec[r]
		if k != k {
			continue
		}
		k = normKey(k)
		i := hashF64(k) & g.mask
		for g.keys[i] != k {
			i = (i + 1) & g.mask
		}
		g.rows[cur[i]] = r
		cur[i]++
	}
	return g
}

// lookup returns the build rows matching a probe key (nil for misses
// and NaN probes — a Go map lookup with a NaN key always misses).
func (g *f64Groups) lookup(k float64) []int32 {
	if k != k {
		return nil
	}
	k = normKey(k)
	if g.dense {
		i := k - g.dmin
		if !(i >= 0) || i >= float64(len(g.off)) || i != math.Trunc(i) {
			return nil
		}
		s := int(i)
		if g.cnt[s] == 0 {
			return nil
		}
		return g.rows[g.off[s] : g.off[s]+g.cnt[s]]
	}
	i := hashF64(k) & g.mask
	for {
		cur := g.keys[i]
		if cur != cur {
			return nil
		}
		if cur == k {
			return g.rows[g.off[i] : g.off[i]+g.cnt[i]]
		}
		i = (i + 1) & g.mask
	}
}

// attachVec joins the tuples with table `next` via the edge: per
// probe tuple, in probe order, every matching build row (in
// build-input order on equi edges, in key order on band edges) or
// every candidate (cartesian). It sizes
// everything up front: a counting pass fixes the output length so the
// result array is allocated once at exact capacity, the equi build
// side goes through the two-pass grouped table instead of an
// incrementally grown map, and when the probe side is much smaller
// than the build side the build rows are pre-filtered by the probe key
// set (a row whose key matches no probe can never emit).
func (e *Engine) attachVec(b *binding, region relq.Region, tuples []int32, order []int, attached map[int]int, cands [][]int32, next int, edge *joinEdge) ([]int32, error) {
	stride := len(order)
	ntup := len(tuples) / max(stride, 1)
	nextCands := cands[next]
	newStride := stride + 1

	overflow := func() error {
		return fmt.Errorf("exec: intermediate join result exceeds %d tuples", e.MaxIntermediate)
	}

	switch {
	case edge != nil && edge.equi != nil:
		ej := edge.equi
		// Probe side is the attached table; build side is `next`.
		var probeVec, buildVec []float64
		var probeCoef, buildCoef float64
		var probePos int
		if !edge.flip { // next is right side
			probeVec, probeCoef, probePos = ej.lvec, ej.lc, attached[ej.ltbl]
			buildVec, buildCoef = ej.rvec, ej.rc
		} else {
			probeVec, probeCoef, probePos = ej.rvec, ej.rc, attached[ej.rtbl]
			buildVec, buildCoef = ej.lvec, ej.lc
		}
		buildRows := nextCands
		// Build-side semi filter: when the probe side is far smaller,
		// drop build rows whose key matches no probe key before
		// building the table. Dropped rows are unreachable from every
		// probe, so the join output is unchanged.
		if ntup > 0 && len(buildRows) >= 4*ntup {
			pset := newF64Set(ntup)
			for ti := 0; ti < ntup; ti++ {
				pset.add(probeCoef * probeVec[tuples[ti*stride+probePos]])
			}
			pset.freeze()
			kept := make([]int32, 0, 4*ntup)
			for _, r := range buildRows {
				if pset.contains(buildCoef * buildVec[r]) {
					kept = append(kept, r)
				}
			}
			buildRows = kept
		}
		g := buildF64Groups(buildRows, buildVec, buildCoef)
		total := 0
		for ti := 0; ti < ntup; ti++ {
			k := probeCoef * probeVec[tuples[ti*stride+probePos]]
			total += len(g.lookup(k))
			if total > e.MaxIntermediate {
				return nil, overflow()
			}
		}
		out := make([]int32, 0, total*newStride)
		for ti := 0; ti < ntup; ti++ {
			k := probeCoef * probeVec[tuples[ti*stride+probePos]]
			for _, r := range g.lookup(k) {
				out = append(out, tuples[ti*stride:(ti+1)*stride]...)
				out = append(out, r)
			}
		}
		return out, nil

	case edge != nil && edge.band != nil:
		jd := edge.band
		maxBand := jd.dim.BoundAt(region[jd.di].Hi)
		var probeVec, buildVec []float64
		var probeCoef, buildCoef float64
		var probePos int
		if !edge.flip { // next is right side
			probeVec, probeCoef, probePos = jd.lvec, jd.lc, attached[jd.ltbl]
			buildVec, buildCoef = jd.rvec, jd.rc
		} else {
			probeVec, probeCoef, probePos = jd.rvec, jd.rc, attached[jd.rtbl]
			buildVec, buildCoef = jd.lvec, jd.lc
		}
		if buildCoef == 0 {
			return nil, fmt.Errorf("exec: zero join coefficient")
		}
		// Sort build side by scaled value once; both the counting and
		// the fill pass run the identical binary-search + linear band
		// walk, so they agree row for row (including NaN key and NaN
		// center behavior, where comparisons are all-false).
		type kv struct {
			key float64
			row int32
		}
		sorted := make([]kv, len(nextCands))
		for i, r := range nextCands {
			sorted[i] = kv{key: buildCoef * buildVec[r], row: r}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
		total := 0
		for ti := 0; ti < ntup; ti++ {
			center := probeCoef * probeVec[tuples[ti*stride+probePos]]
			lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].key >= center-maxBand })
			for i := lo; i < len(sorted) && sorted[i].key <= center+maxBand; i++ {
				total++
			}
			if total > e.MaxIntermediate {
				return nil, overflow()
			}
		}
		out := make([]int32, 0, total*newStride)
		for ti := 0; ti < ntup; ti++ {
			center := probeCoef * probeVec[tuples[ti*stride+probePos]]
			lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].key >= center-maxBand })
			for i := lo; i < len(sorted) && sorted[i].key <= center+maxBand; i++ {
				out = append(out, tuples[ti*stride:(ti+1)*stride]...)
				out = append(out, sorted[i].row)
			}
		}
		return out, nil

	default: // cartesian
		if len(nextCands) > 0 && ntup > e.MaxIntermediate/len(nextCands) {
			return nil, overflow()
		}
		total := ntup * len(nextCands)
		out := make([]int32, 0, total*newStride)
		for ti := 0; ti < ntup; ti++ {
			for _, r := range nextCands {
				out = append(out, tuples[ti*stride:(ti+1)*stride]...)
				out = append(out, r)
			}
		}
		return out, nil
	}
}
