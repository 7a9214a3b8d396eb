package exec

import (
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"

	"acquire/internal/data"
)

// This file is the workload-adaptive auto-clustering subsystem: the
// engine learns which columns the workload actually ranges over and
// re-lays fact tables out around the winners so zone maps engage
// without anyone passing -cluster. Refinement workloads concentrate
// their ranging on a small, stable set of dimension columns (the search
// widens the same predicates over and over), which is what makes a
// learned layout converge quickly and stay put.
//
// Mechanics: vscanTable feeds per-column touch counters and a *marginal*
// selectivity EWMA into workloadStats on every scan while auto-
// clustering is enabled (the sorted indexes already compute each driving
// interval's exact row count during access-path selection, so the
// marginals are free). maybeAutoCluster — invoked at the end of each
// AggregateBatch, i.e. between batches, never mid-query — scores the
// columns of each scanned table and, when the projected benefit crosses
// the policy thresholds, rewrites the table: a single-column sort
// (data.SortedBy) when one column dominates, or a two-column Z-order
// interleave (data.ZOrderBy) when two range columns both carry weight
// and the cost model projects more blocks skipped from pruning on both
// axes than from perfect clustering on either one. The rewrite swaps
// into the catalog and rebuilds the table's grid index from the live
// grid's own spec; derived state (column vectors, sorted indexes, zone
// maps, region cache) retires through the table-identity cache scheme
// plus InvalidateTable. The workload statistics survive the swap as a
// decayed prior (see swapLayout), so an unchanged winner does not
// re-earn its evidence from zero after every layout action.
//
// Scheduling: a layout rewrite is a stop-the-world O(n log n) moment
// for the table. When other batches are in flight (Engine.pendingBatches
// > 0), the sweep defers the action — counted in DeferredResorts — and
// the last batch of the storm performs it on the way out. Deferring
// never loses the decision (the statistics that justified it only
// accumulate) and keeps a batch storm from stalling behind a rewrite
// it could amortize after draining.
//
// Caveat (documented, deliberate): a re-sort changes physical row ids,
// so ViolationScan/Materialize row numbers refer to the re-clustered
// layout. Values, violations and aggregates are unchanged — for SUM
// bit-identity the batch that triggers a re-sort still computes on the
// layout it bound, and only later batches see the new one.

// AutoClusterPolicy holds the thresholds of the clustering decision.
type AutoClusterPolicy struct {
	// MinScans is the minimum touch count a column needs before it can
	// be elected — the evidence bar against clustering on a transient
	// probe.
	MinScans int64
	// MaxSelectivity is the highest *marginal* selectivity EWMA (rows
	// admitted by that column's own driving interval / table rows) at
	// which the column is still a useful clustering axis: a column whose
	// predicates admit nearly the whole table leaves nothing for zone
	// maps to skip no matter the layout.
	MaxSelectivity float64
	// MinRows exempts tiny tables — a re-sort of a table that fits in
	// a handful of blocks can never recoup its cost.
	MinRows int
	// Hysteresis is the factor by which a challenger layout's projected
	// score must exceed the incumbent layout's (both scored on current
	// statistics) before the table is rewritten away from it, damping
	// flip-flop under mixed workloads.
	Hysteresis float64
	// TailFraction triggers a tail merge when the unsorted append tail
	// exceeds this fraction of the table (a tail of at least one block
	// always qualifies).
	TailFraction float64
	// ZOrder admits two-column Z-order layouts into the election
	// (Engine.SetZOrder is the runtime equivalent; either enables).
	ZOrder bool
	// ZOrderBits is the per-axis rank resolution passed to data.ZOrderBy
	// (0 uses its default).
	ZOrderBits int
	// ZOrderMargin is the factor by which the Z-order candidate's
	// projected score must beat the best single-column score before the
	// curve layout is chosen: interleaving dilutes each axis's run
	// length, so it must not win ties.
	ZOrderMargin float64
	// PaybackScans is the horizon (in future scans) over which a layout
	// *switch* must recoup one full-scan's worth of extra blocks
	// skipped: (candidate skip fraction - incumbent skip fraction) *
	// PaybackScans >= 1. Initial elections from an unclustered layout
	// are exempt — any skipping beats none.
	PaybackScans float64
}

// DefaultAutoClusterPolicy is the policy engines start with.
// MaxSelectivity is calibrated against the fig. 8 refinement batch: its
// widening prefix regions drag each column's *marginal* EWMA up to
// ~0.93 (three dimensions sharing a joint selectivity of ~0.81) even
// though explicit clustering still wins ~1.3x there, so the gate sits
// above that with room while still rejecting admit-everything columns.
var DefaultAutoClusterPolicy = AutoClusterPolicy{
	MinScans:       24,
	MaxSelectivity: 0.97,
	MinRows:        4 * blockRows,
	Hysteresis:     2,
	TailFraction:   0.05,
	ZOrderMargin:   1.1,
	PaybackScans:   16,
}

// workloadStats collects per-table, per-column range-predicate touch
// counters and marginal-selectivity EWMAs. The mutex is uncontended in
// practice: observe is called once per table scan (not per block or
// row), and only while auto-clustering is enabled.
type workloadStats struct {
	mu     sync.Mutex
	tables map[string]*tableWorkload
}

type tableWorkload struct {
	scans int64
	cols  map[int]*colWorkload // column ordinal -> stats
}

type colWorkload struct {
	touches int64
	ewma    float64 // marginal selectivity EWMA in [0,1]; seeded on first touch
	seeded  bool
}

// ewmaAlpha weights the newest scan's selectivity; 0.2 smooths over
// roughly the last ten scans.
const ewmaAlpha = 0.2

// observe records one table scan: every driving range predicate
// touches its column, and that drive's own marginal selectivity (rows
// its interval admits / table rows, from the sorted index) updates the
// column's EWMA. Marginal — not joint — attribution is what lets the
// Z-order cost model reason about each axis separately: under a
// conjunctive two-column workload the joint selectivity says both
// columns look great, while the marginals reveal which column's
// interval actually narrows the table.
func (w *workloadStats) observe(table string, n int, drives []scanDrive, margs []int) {
	if n == 0 || len(drives) == 0 || len(margs) != len(drives) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tables == nil {
		w.tables = make(map[string]*tableWorkload)
	}
	tw := w.tables[table]
	if tw == nil {
		tw = &tableWorkload{cols: make(map[int]*colWorkload)}
		w.tables[table] = tw
	}
	tw.scans++
	for i, d := range drives {
		sel := float64(margs[i]) / float64(n)
		cw := tw.cols[d.ord]
		if cw == nil {
			cw = &colWorkload{}
			tw.cols[d.ord] = cw
		}
		cw.touches++
		if !cw.seeded {
			cw.ewma, cw.seeded = sel, true
		} else {
			cw.ewma += ewmaAlpha * (sel - cw.ewma)
		}
	}
}

// forget drops a table's collected statistics (InvalidateTable hook):
// a replaced table re-learns its clustering column from fresh traffic.
func (w *workloadStats) forget(table string) {
	w.mu.Lock()
	delete(w.tables, table)
	w.mu.Unlock()
}

// decayedCopy returns a decayed deep copy of one table's statistics
// (touch and scan counts scaled by factor, EWMAs kept — the selectivity
// estimate stays valid across a layout change, only the evidence weight
// ages), or nil when the table has none.
func (w *workloadStats) decayedCopy(table string, factor float64) *tableWorkload {
	w.mu.Lock()
	defer w.mu.Unlock()
	tw := w.tables[table]
	if tw == nil {
		return nil
	}
	out := &tableWorkload{
		scans: int64(float64(tw.scans) * factor),
		cols:  make(map[int]*colWorkload, len(tw.cols)),
	}
	for ord, cw := range tw.cols {
		out.cols[ord] = &colWorkload{
			touches: int64(float64(cw.touches) * factor),
			ewma:    cw.ewma,
			seeded:  cw.seeded,
		}
	}
	return out
}

// restore installs a saved prior for a table unless fresh statistics
// already exist (scans observed between the save and the restore win).
func (w *workloadStats) restore(table string, tw *tableWorkload) {
	if tw == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tables == nil {
		w.tables = make(map[string]*tableWorkload)
	}
	if _, ok := w.tables[table]; !ok {
		w.tables[table] = tw
	}
}

// snapshot returns the touched table names and a copy of one table's
// per-column stats, so the sweep can score without holding the lock
// across catalog operations.
func (w *workloadStats) snapshot() map[string]map[int]colWorkload {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]map[int]colWorkload, len(w.tables))
	for name, tw := range w.tables {
		cols := make(map[int]colWorkload, len(tw.cols))
		for ord, cw := range tw.cols {
			cols[ord] = *cw
		}
		out[name] = cols
	}
	return out
}

// SetAutoCluster enables or disables workload-adaptive clustering:
// scans feed per-column statistics and each AggregateBatch ends with a
// clustering sweep. Disabling stops collection and sweeps; already
// re-sorted tables keep their layout.
func (e *Engine) SetAutoCluster(on bool) { e.autoCluster.Store(on) }

// AutoClusterOn reports whether workload-adaptive clustering is active.
func (e *Engine) AutoClusterOn() bool { return e.autoCluster.Load() }

// clusterPolicy returns the engine's policy, defaulting when unset.
func (e *Engine) clusterPolicy() AutoClusterPolicy {
	p := e.ClusterPolicy
	if p.MinScans == 0 {
		p.MinScans = DefaultAutoClusterPolicy.MinScans
	}
	if p.MaxSelectivity == 0 {
		p.MaxSelectivity = DefaultAutoClusterPolicy.MaxSelectivity
	}
	if p.MinRows == 0 {
		p.MinRows = DefaultAutoClusterPolicy.MinRows
	}
	if p.Hysteresis == 0 {
		p.Hysteresis = DefaultAutoClusterPolicy.Hysteresis
	}
	if p.TailFraction == 0 {
		p.TailFraction = DefaultAutoClusterPolicy.TailFraction
	}
	if p.ZOrderMargin == 0 {
		p.ZOrderMargin = DefaultAutoClusterPolicy.ZOrderMargin
	}
	if p.PaybackScans == 0 {
		p.PaybackScans = DefaultAutoClusterPolicy.PaybackScans
	}
	return p
}

// maybeAutoCluster is the between-batches sweep: for every table the
// workload has scanned, merge an overgrown append tail back into the
// sorted run, and elect/re-elect a layout when the policy thresholds
// are met. The sweep mutex serializes layout rewrites; a batch running
// concurrently on another goroutine keeps computing on the *Table
// pointers it bound (the old layout stays intact), and its derived-
// state lookups against the new table miss by identity and rebuild.
// While other batches are still in flight, layout actions are deferred
// (DeferredResorts) rather than taken — the scheduler's backpressure
// rule.
func (e *Engine) maybeAutoCluster() {
	if !e.autoCluster.Load() {
		return
	}
	snap := e.wstats.snapshot()
	if len(snap) == 0 {
		return
	}
	busy := e.pendingBatches.Load() > 0
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	pol := e.clusterPolicy()
	pol.ZOrder = pol.ZOrder || e.zorder.Load()
	for name, cols := range snap {
		e.sweepTable(name, cols, pol, busy)
	}
}

// layoutCand is one scored layout proposal: the column set (one name
// for a plain sort, two for a Z-order interleave), the cost-model score
// (projected touch-weighted pruning benefit), and the projected
// skipped-block fraction on a typical driving scan (the payback-gate
// currency).
type layoutCand struct {
	cols  []string
	score float64
	skip  float64
	z     bool
}

// zorderInflate is the cost model's boundary-overhead factor for the
// curve layout: a Z-order block covers a rank-space rectangle, so a
// conjunctive two-axis query visits roughly the product selectivity
// worth of blocks *plus* a boundary ring — modeled as visiting
// zorderInflate * sa * sb of the table.
const zorderInflate = 1.5

// zaxis is the projected skipped-block fraction of a *single-axis*
// query against a Z-order layout: an axis-aligned slab of marginal
// selectivity s intersects about sqrt-of-s of the curve's blocks per
// recursion level, so 1-sqrt(s) of blocks are skippable — much weaker
// than the 1-s a dedicated single-column sort would give, which is
// exactly the trade the election weighs.
func zaxis(s float64) float64 {
	if s < 0 {
		s = 0
	}
	if v := 1 - math.Sqrt(s); v > 0 {
		return v
	}
	return 0
}

// zorderScore projects the benefit of interleaving two columns with
// touch counts ta/tb and marginal-selectivity EWMAs sa/sb. Scans that
// drive both columns (about min(ta,tb) of them — refinement batches
// range all their dimensions together) prune on both axes at once;
// the remainder of each column's touches prune single-axis at the
// diluted zaxis rate. skipBoth is the both-axes skipped fraction, the
// candidate's payback currency.
func zorderScore(ta, tb int64, sa, sb float64) (score, skipBoth float64) {
	skipBoth = 1 - math.Min(1, zorderInflate*sa*sb)
	if skipBoth < 0 {
		skipBoth = 0
	}
	m := math.Min(float64(ta), float64(tb))
	score = m*skipBoth + (float64(ta)-m)*zaxis(sa) + (float64(tb)-m)*zaxis(sb)
	return score, skipBoth
}

// electLayout scores the eligible layouts of one table against the
// collected statistics and returns the winner: the best single column
// by touches * (1 - marginal EWMA), or — when Z-order is admitted and
// two columns clear the evidence bars — the interleave of the top two,
// if its projected score beats the best single by the policy margin.
func (e *Engine) electLayout(t *data.Table, cols map[int]colWorkload, pol AutoClusterPolicy) (layoutCand, bool) {
	type single struct {
		ord     int
		touches int64
		sel     float64
		score   float64
	}
	var singles []single
	for ord, cw := range cols {
		if cw.touches < pol.MinScans || cw.ewma > pol.MaxSelectivity {
			continue
		}
		if ord < 0 || ord >= t.Schema().Len() {
			continue
		}
		singles = append(singles, single{ord, cw.touches, cw.ewma, float64(cw.touches) * (1 - cw.ewma)})
	}
	if len(singles) == 0 {
		return layoutCand{}, false
	}
	// Deterministic election: score descending, ordinal ascending.
	sort.Slice(singles, func(i, j int) bool {
		if singles[i].score != singles[j].score {
			return singles[i].score > singles[j].score
		}
		return singles[i].ord < singles[j].ord
	})
	best := singles[0]
	cand := layoutCand{
		cols:  []string{t.Schema().Columns[best.ord].Name},
		score: best.score,
		skip:  1 - best.sel,
	}
	if pol.ZOrder && len(singles) >= 2 {
		a, b := singles[0], singles[1]
		zs, zskip := zorderScore(a.touches, b.touches, a.sel, b.sel)
		if zs > pol.ZOrderMargin*best.score {
			oa, ob := a.ord, b.ord
			if ob < oa {
				oa, ob = ob, oa
			}
			cand = layoutCand{
				cols:  []string{t.Schema().Columns[oa].Name, t.Schema().Columns[ob].Name},
				score: zs,
				skip:  zskip,
				z:     true,
			}
		}
	}
	return cand, true
}

// scoreIncumbent scores the table's current layout under the same cost
// model and current statistics, so challenger and incumbent compare in
// one currency. Columns without fresh statistics score as admitting
// everything (selectivity 1): an incumbent the workload no longer
// ranges over defends nothing.
func (e *Engine) scoreIncumbent(t *data.Table, curCols []string, cols map[int]colWorkload) layoutCand {
	statFor := func(name string) (int64, float64) {
		ord := t.Schema().Ordinal(name)
		if cw, ok := cols[ord]; ok && cw.seeded {
			return cw.touches, cw.ewma
		}
		return 0, 1
	}
	if len(curCols) == 1 {
		touches, sel := statFor(curCols[0])
		return layoutCand{cols: curCols, score: float64(touches) * (1 - sel), skip: 1 - sel}
	}
	ta, sa := statFor(curCols[0])
	tb, sb := statFor(curCols[1])
	score, skip := zorderScore(ta, tb, sa, sb)
	return layoutCand{cols: curCols, score: score, skip: skip, z: true}
}

// sameLayout reports order- and case-insensitive equality of two
// clustering column sets. Order-insensitive on purpose: Z(a,b) and
// Z(b,a) lay rows out differently but prune identically under the cost
// model, so flipping between them would be pure churn.
func sameLayout(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if strings.EqualFold(x, y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (e *Engine) sweepTable(name string, cols map[int]colWorkload, pol AutoClusterPolicy, busy bool) {
	t, err := e.cat.Table(name)
	if err != nil || t.NumRows() < pol.MinRows {
		return
	}

	// Tail maintenance: a clustered table whose unsorted append tail
	// has reached a block (or the policy fraction) gets the tail
	// merged back into the sorted run — deferred while a batch storm
	// is in flight.
	curCols, _ := t.ClusterSpec()
	if tail := t.ClusterTail(); len(curCols) > 0 && tail > 0 &&
		(tail >= blockRows || float64(tail) >= pol.TailFraction*float64(t.NumRows())) {
		if busy {
			e.countDeferredResorts(1)
			return
		}
		merged, err := data.MergeClusteredTail(t)
		if err == nil && merged != t {
			e.swapLayout(name, merged)
			e.countTailMerges(1)
			if eo := e.obsState.Load(); eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
				eo.o.Debug("engine.autocluster.tail_merge", "table", name, "tail", tail)
			}
			t = merged
		}
	}

	// Election: best projected layout under the cost model.
	cand, ok := e.electLayout(t, cols, pol)
	if !ok || sameLayout(cand.cols, curCols) {
		return
	}
	if len(curCols) > 0 {
		// Switching away from an incumbent layout needs hysteresis-
		// scaled evidence plus a payback check: the extra blocks the
		// challenger would skip per scan must recoup one full scan
		// within the policy horizon. Initial elections are exempt —
		// any skipping beats an unclustered layout.
		inc := e.scoreIncumbent(t, curCols, cols)
		if cand.score < pol.Hysteresis*inc.score {
			return
		}
		if (cand.skip-inc.skip)*pol.PaybackScans < 1 {
			return
		}
	}
	if busy {
		e.countDeferredResorts(1)
		return
	}

	var next *data.Table
	if cand.z {
		next, err = data.ZOrderBy(t, cand.cols, pol.ZOrderBits)
	} else {
		next, err = data.SortedBy(t, cand.cols[0])
	}
	if err != nil {
		return // non-numeric or vanished column; nothing to do
	}
	e.swapLayout(name, next)
	e.countResorts(1)
	if cand.z {
		e.countZOrderResorts(1)
	}
	if eo := e.obsState.Load(); eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.autocluster.resort", "table", name,
			"columns", strings.Join(cand.cols, ","), "zorder", cand.z,
			"rows", next.NumRows())
	}
}

// swapLayout replaces a table's physical layout in the catalog and
// re-derives dependent state: the grid index (if any) is rebuilt from
// its own live spec — same columns, same aggregate columns, same bins —
// over the new row order, and every other cache retires through
// InvalidateTable. The workload statistics survive the swap as a
// half-weight prior (EWMAs intact, evidence counts halved): the scans
// that justified the layout stay on the record, so an unchanged winner
// is not re-learned from zero, while the decay still lets a workload
// shift re-elect reasonably fast.
func (e *Engine) swapLayout(name string, nt *data.Table) {
	key := strings.ToLower(name)
	prior := e.wstats.decayedCopy(key, 0.5)
	e.mu.RLock()
	g := e.grids[key]
	e.mu.RUnlock()
	e.cat.Replace(nt)
	e.InvalidateTable(name)
	e.wstats.restore(key, prior)
	if g == nil {
		return
	}
	if g.HasAggs() {
		_ = e.BuildGridAggIndex(name, g.Columns(), g.AggColumns(), g.Bins(0))
	} else {
		_ = e.BuildGridIndex(name, g.Columns(), g.Bins(0))
	}
}
