// Package exec is the evaluation layer of the reproduction: an
// in-memory columnar executor for conjunctive select-project-join
// queries with aggregate output. The original system delegated query
// execution to Postgres and noted the layer is modular (§3); every
// technique in this repository — ACQUIRE and the baselines — issues its
// (cell or whole) queries through this same engine, so execution-time
// comparisons count identical work units.
package exec

import (
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// DefaultMaxIntermediate bounds intermediate join results, guarding
// accidental unbounded cartesian products.
const DefaultMaxIntermediate = 1 << 26

// Stats counts the work the engine has performed. All counters are
// cumulative and atomically updated; Snapshot returns a consistent copy.
type Stats struct {
	// Queries is the number of query executions (cell queries and whole
	// queries alike — each is one round trip to the evaluation layer).
	Queries int64
	// RowsScanned counts base-table rows touched by scans. Rows in
	// zone-map-skipped blocks are never touched and are not counted
	// (see BlocksSkipped).
	RowsScanned int64
	// BlocksScanned counts column blocks visited by the vectorized scan
	// path (full scans only; index-driven scans count rows, not blocks).
	BlocksScanned int64
	// BlocksSkipped counts column blocks proven candidate-free by zone
	// maps and skipped without touching any row.
	BlocksSkipped int64
	// TuplesExamined counts join tuples tested against regions.
	TuplesExamined int64
	// CellsSkipped counts queries answered empty by the grid index
	// without scanning (§7.4).
	CellsSkipped int64
	// CellsMerged counts grid cells answered by merging stored per-cell
	// partials (the box-aggregate kernel's interior cells) — zero rows
	// touched per cell.
	CellsMerged int64
	// BoundaryRows counts rows scanned from boundary-cell posting lists
	// by the box-aggregate kernel (also included in RowsScanned).
	BoundaryRows int64
	// CacheHits counts region executions answered from the attached
	// region cache (including joins onto another caller's in-flight
	// execution) — these never reach Queries.
	CacheHits int64
	// CacheMisses counts region executions that went through the cache
	// and had to execute (each also increments Queries).
	CacheMisses int64
	// CacheEvictions counts entries displaced from the region cache by
	// fills attributed to this engine.
	CacheEvictions int64
	// Resorts counts auto-clustering re-sorts: the workload-statistics
	// policy picked a clustering column and rewrote the table layout.
	Resorts int64
	// TailMerges counts auto-clustering tail merges: the unsorted append
	// tail of a clustered table was merged back into its sorted run.
	TailMerges int64
	// DegradedScans counts full scans over clustered tables whose
	// unsorted append tail has outgrown the block size — the layout
	// regime where zone maps still prune the sorted prefix but the tail
	// blocks span the whole domain and are never skippable.
	DegradedScans int64
	// ZOrderResorts counts auto-clustering re-sorts that produced a
	// Z-order (two-column interleaved) layout; each also increments
	// Resorts.
	ZOrderResorts int64
	// DeferredResorts counts layout actions (re-sorts or tail merges)
	// the scheduler postponed because a batch storm was in flight —
	// the cost model judged the rewrite cheaper to amortize after the
	// pending batches drain.
	DeferredResorts int64
}

// Sub returns the counter deltas s minus prev — the work performed
// between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Queries:         s.Queries - prev.Queries,
		RowsScanned:     s.RowsScanned - prev.RowsScanned,
		BlocksScanned:   s.BlocksScanned - prev.BlocksScanned,
		BlocksSkipped:   s.BlocksSkipped - prev.BlocksSkipped,
		TuplesExamined:  s.TuplesExamined - prev.TuplesExamined,
		CellsSkipped:    s.CellsSkipped - prev.CellsSkipped,
		CellsMerged:     s.CellsMerged - prev.CellsMerged,
		BoundaryRows:    s.BoundaryRows - prev.BoundaryRows,
		CacheHits:       s.CacheHits - prev.CacheHits,
		CacheMisses:     s.CacheMisses - prev.CacheMisses,
		CacheEvictions:  s.CacheEvictions - prev.CacheEvictions,
		Resorts:         s.Resorts - prev.Resorts,
		TailMerges:      s.TailMerges - prev.TailMerges,
		DegradedScans:   s.DegradedScans - prev.DegradedScans,
		ZOrderResorts:   s.ZOrderResorts - prev.ZOrderResorts,
		DeferredResorts: s.DeferredResorts - prev.DeferredResorts,
	}
}

// statsCells holds one generation of the engine's counters. ResetStats
// swaps in a fresh generation atomically, so a concurrent Snapshot
// reads counters that all belong to the same generation — never a
// half-reset mixture.
type statsCells struct {
	queries         atomic.Int64
	rowsScanned     atomic.Int64
	blocksScanned   atomic.Int64
	blocksSkipped   atomic.Int64
	tuplesExamined  atomic.Int64
	cellsSkipped    atomic.Int64
	cellsMerged     atomic.Int64
	boundaryRows    atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	cacheEvictions  atomic.Int64
	resorts         atomic.Int64
	tailMerges      atomic.Int64
	degradedScans   atomic.Int64
	zorderResorts   atomic.Int64
	deferredResorts atomic.Int64
}

// engineObs holds the pre-resolved observability handles of an
// attached observer, so the hot path pays one nil check and direct
// atomic increments — no registry lookups per query.
type engineObs struct {
	o             *obs.Observer
	queries       *obs.Counter
	rows          *obs.Counter
	blocksScanned *obs.Counter
	blocksSkipped *obs.Counter
	tuples        *obs.Counter
	cells         *obs.Counter
	cellsMerged   *obs.Counter
	boundary      *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEvict    *obs.Counter
	resorts       *obs.Counter
	tailMerges    *obs.Counter
	degraded      *obs.Counter
	zorderResorts *obs.Counter
	deferred      *obs.Counter
	queryDur      *obs.Histogram
	selDensity    *obs.Histogram

	// axisCtrs are the per-column zone-skip counters, created lazily on
	// first skip attribution for a column (the label set is data-driven:
	// one series per pruning column actually seen).
	axisMu   sync.Mutex
	axisCtrs map[string]*obs.Counter
}

// Engine executes relq queries against a catalog.
type Engine struct {
	cat *data.Catalog

	mu       sync.RWMutex
	colCache map[colKey]colEntry
	grids    map[string]*index.Grid
	sortIdx  map[colKey]sortEntry
	zones    map[colKey]zoneEntry

	// MaxIntermediate bounds intermediate join sizes (tuples).
	MaxIntermediate int
	// Parallelism caps scan/aggregation workers; 0 means GOMAXPROCS.
	Parallelism int

	// stats points at the current counter generation; see statsCells.
	stats atomic.Pointer[statsCells]
	// obsState mirrors counters into an attached obs.Observer; nil
	// (the default) is the uninstrumented fast path.
	obsState atomic.Pointer[engineObs]
	// regionCache memoizes per-region partials across searches and
	// sessions (see cache.go); nil (the default) executes every region.
	regionCache atomic.Pointer[regioncache.Cache]

	// autoCluster enables the workload-adaptive clustering policy; see
	// autocluster.go. wstats is its per-column touch/selectivity
	// collector, fed by vscanTable and consulted by maybeAutoCluster at
	// the end of each batch; sweepMu serializes layout rewrites.
	autoCluster atomic.Bool
	wstats      workloadStats
	sweepMu     sync.Mutex
	// ClusterPolicy overrides the auto-clustering thresholds; zero
	// fields fall back to DefaultAutoClusterPolicy (see clusterPolicy).
	ClusterPolicy AutoClusterPolicy
	// zorder admits two-column Z-order layouts into the auto-clustering
	// election (equivalent to ClusterPolicy.ZOrder; either enables).
	zorder atomic.Bool

	// pendingBatches counts AggregateBatch calls currently in flight —
	// the backpressure signal the re-sort scheduler reads: a sweep that
	// would rewrite a layout while other batches are executing defers
	// instead (see sweepTable), so a batch storm never stalls behind a
	// re-sort it could have amortized after draining.
	pendingBatches atomic.Int64

	// zoneSkips attributes zone-map block skips to the pruning column
	// ("table.column" keys) — the per-axis visibility that shows both
	// dimensions of a Z-order layout earning their keep.
	zoneSkipMu sync.Mutex
	zoneSkips  map[string]int64
}

type colKey struct {
	table string
	ord   int
}

// colEntry / sortEntry / zoneEntry are derived-state cache slots keyed
// by *table identity*: a hit requires the exact *data.Table the entry
// was built from (pointer equality) at the same row count. Row-count
// generations alone cannot see a catalog Replace that keeps the row
// count — exactly what an auto-clustering re-sort does — while pointer
// identity retires such entries for free (the catalog hands out a new
// *Table, so lookups against it miss and rebuild). In-place rewrites of
// an existing table still require InvalidateTable, as before.
type colEntry struct {
	vec []float64
	src *data.Table
}

type sortEntry struct {
	idx *sortedIdx
	src *data.Table
	n   int // rows at build time
}

type zoneEntry struct {
	zm  *zoneMap
	src *data.Table
	n   int // column length at build time
}

// New creates an engine over the catalog.
func New(cat *data.Catalog) *Engine {
	e := &Engine{
		cat:             cat,
		colCache:        make(map[colKey]colEntry),
		grids:           make(map[string]*index.Grid),
		sortIdx:         make(map[colKey]sortEntry),
		zones:           make(map[colKey]zoneEntry),
		MaxIntermediate: DefaultMaxIntermediate,
	}
	e.stats.Store(&statsCells{})
	return e
}

// Catalog exposes the underlying catalog (read-only use).
func (e *Engine) Catalog() *data.Catalog { return e.cat }

// SetObserver attaches an observer: engine counters are mirrored into
// its registry (acquire_engine_* series, registered eagerly so they
// expose as 0 before the first query), per-query durations land in
// the "evaluate" phase histogram, and engine-level events (query
// completion, grid-index skips) stream to its structured log. A nil
// observer detaches, restoring the zero-cost fast path.
func (e *Engine) SetObserver(o *obs.Observer) {
	if o == nil {
		e.obsState.Store(nil)
		return
	}
	e.obsState.Store(&engineObs{
		o:             o,
		queries:       o.Counter("acquire_engine_queries_total", "Evaluation-layer query executions (cell and whole queries)."),
		rows:          o.Counter("acquire_engine_rows_scanned_total", "Base-table rows touched by scans."),
		blocksScanned: o.Counter("acquire_engine_blocks_scanned_total", "Column blocks visited by the vectorized full-scan path."),
		blocksSkipped: o.Counter("acquire_engine_blocks_skipped_total", "Column blocks proven candidate-free by zone maps and skipped without touching rows."),
		tuples:        o.Counter("acquire_engine_tuples_examined_total", "Join tuples tested against regions."),
		cells:         o.Counter("acquire_engine_cells_skipped_total", "Queries answered empty by the grid index without scanning (§7.4)."),
		cellsMerged:   o.Counter("acquire_engine_cells_merged_total", "Grid cells answered by merging stored per-cell partials (box-aggregate kernel interior cells)."),
		boundary:      o.Counter("acquire_engine_boundary_rows_total", "Rows scanned from boundary-cell posting lists by the box-aggregate kernel."),
		cacheHits:     o.Counter("acquire_cache_hits_total", "Region executions answered from the cross-search partial-aggregate cache."),
		cacheMisses:   o.Counter("acquire_cache_misses_total", "Region executions that missed the cross-search partial-aggregate cache and executed."),
		cacheEvict:    o.Counter("acquire_cache_evictions_total", "Entries displaced from the cross-search partial-aggregate cache by the byte cap."),
		resorts:       o.Counter("acquire_autocluster_resorts_total", "Auto-clustering re-sorts: the workload policy rewrote a table layout around a learned clustering column."),
		tailMerges:    o.Counter("acquire_autocluster_tail_merges_total", "Auto-clustering tail merges: a clustered table's unsorted append tail merged back into its sorted run."),
		degraded:      o.Counter("acquire_engine_cluster_degraded_scans_total", "Full scans over clustered tables whose unsorted append tail exceeds one block (zone maps blind on the tail)."),
		zorderResorts: o.Counter("acquire_autocluster_zorder_resorts_total", "Auto-clustering re-sorts that produced a Z-order (two-column interleaved) layout."),
		deferred:      o.Counter("acquire_autocluster_deferred_resorts_total", "Layout rewrites (re-sorts or tail merges) the scheduler postponed because a batch storm was in flight."),
		queryDur:      o.Histogram(`acquire_phase_duration_seconds{phase="evaluate"}`, "Duration of search/engine phases by phase name.", nil),
		selDensity: o.Histogram("acquire_engine_selection_density",
			"Post-filter selection-vector density per scanned block (kept rows / block rows).",
			[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}),
	})
}

// Observer returns the attached observer (nil when detached) —
// baselines and other engine clients time their phases through it.
func (e *Engine) Observer() *obs.Observer {
	if eo := e.obsState.Load(); eo != nil {
		return eo.o
	}
	return nil
}

// Snapshot returns a copy of the statistics counters. The copy is
// generation-coherent with ResetStats: all four counters come from
// the same generation, so a snapshot concurrent with a reset is
// either entirely pre-reset or entirely post-reset.
func (e *Engine) Snapshot() Stats {
	c := e.stats.Load()
	return Stats{
		Queries:         c.queries.Load(),
		RowsScanned:     c.rowsScanned.Load(),
		BlocksScanned:   c.blocksScanned.Load(),
		BlocksSkipped:   c.blocksSkipped.Load(),
		TuplesExamined:  c.tuplesExamined.Load(),
		CellsSkipped:    c.cellsSkipped.Load(),
		CellsMerged:     c.cellsMerged.Load(),
		BoundaryRows:    c.boundaryRows.Load(),
		CacheHits:       c.cacheHits.Load(),
		CacheMisses:     c.cacheMisses.Load(),
		CacheEvictions:  c.cacheEvictions.Load(),
		Resorts:         c.resorts.Load(),
		TailMerges:      c.tailMerges.Load(),
		DegradedScans:   c.degradedScans.Load(),
		ZOrderResorts:   c.zorderResorts.Load(),
		DeferredResorts: c.deferredResorts.Load(),
	}
}

// ResetStats zeroes the counters by atomically swapping in a fresh
// counter generation (see Snapshot for the coherence contract).
func (e *Engine) ResetStats() {
	e.stats.Store(&statsCells{})
}

// countQueries / countRows / countTuples bump a counter in the current
// stats generation and mirror it into the attached observer, if any.
func (e *Engine) countQueries(n int64) {
	e.stats.Load().queries.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.queries.Add(n)
	}
}

func (e *Engine) countRows(n int64) {
	e.stats.Load().rowsScanned.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.rows.Add(n)
	}
}

func (e *Engine) countBlocks(scanned, skipped int64) {
	c := e.stats.Load()
	c.blocksScanned.Add(scanned)
	c.blocksSkipped.Add(skipped)
	if eo := e.obsState.Load(); eo != nil {
		eo.blocksScanned.Add(scanned)
		eo.blocksSkipped.Add(skipped)
	}
}

func (e *Engine) countTuples(n int64) {
	e.stats.Load().tuplesExamined.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.tuples.Add(n)
	}
}

func (e *Engine) countCellsMerged(n int64) {
	e.stats.Load().cellsMerged.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cellsMerged.Add(n)
	}
}

func (e *Engine) countBoundaryRows(n int64) {
	e.stats.Load().boundaryRows.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.boundary.Add(n)
	}
}

func (e *Engine) countCacheHits(n int64) {
	e.stats.Load().cacheHits.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheHits.Add(n)
	}
}

func (e *Engine) countCacheMisses(n int64) {
	e.stats.Load().cacheMisses.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheMisses.Add(n)
	}
}

func (e *Engine) countCacheEvictions(n int64) {
	e.stats.Load().cacheEvictions.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheEvict.Add(n)
	}
}

func (e *Engine) countResorts(n int64) {
	e.stats.Load().resorts.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.resorts.Add(n)
	}
}

func (e *Engine) countTailMerges(n int64) {
	e.stats.Load().tailMerges.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.tailMerges.Add(n)
	}
}

func (e *Engine) countDegradedScans(n int64) {
	e.stats.Load().degradedScans.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.degraded.Add(n)
	}
}

func (e *Engine) countZOrderResorts(n int64) {
	e.stats.Load().zorderResorts.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.zorderResorts.Add(n)
	}
}

func (e *Engine) countDeferredResorts(n int64) {
	e.stats.Load().deferredResorts.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.deferred.Add(n)
	}
}

// countZoneAxisSkips attributes one scan's zone-map block skips to the
// columns whose predicates fired (axisSkips aligned with zps; see
// skipAxis for the attribution rule). Only called when at least one
// block was skipped, so unskipping scans pay nothing.
func (e *Engine) countZoneAxisSkips(t *data.Table, zps []zonePred, axisSkips []int64) {
	cols := t.Schema().Columns
	tk := tableKey(t)
	e.zoneSkipMu.Lock()
	if e.zoneSkips == nil {
		e.zoneSkips = make(map[string]int64)
	}
	for i, n := range axisSkips {
		if n > 0 {
			e.zoneSkips[tk+"."+strings.ToLower(cols[zps[i].ord].Name)] += n
		}
	}
	e.zoneSkipMu.Unlock()
	if eo := e.obsState.Load(); eo != nil {
		for i, n := range axisSkips {
			if n > 0 {
				eo.zoneSkipCounter(strings.ToLower(cols[zps[i].ord].Name)).Add(n)
			}
		}
	}
}

// zoneSkipCounter returns (creating on first use) the per-column
// zone-skip counter series. Registration is idempotent in the registry,
// so concurrent first touches of the same column are safe.
func (eo *engineObs) zoneSkipCounter(column string) *obs.Counter {
	eo.axisMu.Lock()
	defer eo.axisMu.Unlock()
	if eo.axisCtrs == nil {
		eo.axisCtrs = make(map[string]*obs.Counter)
	}
	if c, ok := eo.axisCtrs[column]; ok {
		return c
	}
	c := eo.o.Counter(
		fmt.Sprintf("acquire_engine_zone_skips_total{column=%q}", column),
		"Zone-map block skips attributed to the pruning column (first firing predicate).")
	eo.axisCtrs[column] = c
	return c
}

// ZoneSkips returns a copy of the per-column zone-map skip attribution:
// "table.column" -> blocks skipped because that column's zone predicate
// fired first. On a Z-order layout both interleaved axes should appear
// with nonzero counts once the workload exercises both dimensions.
func (e *Engine) ZoneSkips() map[string]int64 {
	e.zoneSkipMu.Lock()
	defer e.zoneSkipMu.Unlock()
	out := make(map[string]int64, len(e.zoneSkips))
	for k, v := range e.zoneSkips {
		out[k] = v
	}
	return out
}

// SetZOrder admits two-column Z-order layouts into the auto-clustering
// election (no-op unless auto-clustering is also enabled). Off by
// default: single-column elections are strictly cheaper to compute and
// most workloads drive one dominant range column.
func (e *Engine) SetZOrder(on bool) { e.zorder.Store(on) }

// ZOrderOn reports whether Z-order layouts may be elected.
func (e *Engine) ZOrderOn() bool { return e.zorder.Load() }

// PendingBatches reports the number of AggregateBatch calls in flight.
func (e *Engine) PendingBatches() int64 { return e.pendingBatches.Load() }

// BuildGridIndex builds and registers a §7.4 grid bitmap index over the
// named numeric columns of a table. Subsequent Aggregate calls use it to
// skip empty cell queries on that table until the table grows or is
// replaced.
func (e *Engine) BuildGridIndex(table string, columns []string, binsPerDim int) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	g, err := index.Build(t, columns, binsPerDim)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.grids[strings.ToLower(table)] = g
	e.mu.Unlock()
	return nil
}

// BuildGridAggIndex builds and registers an aggregate-augmented grid
// over the named numeric columns: per-cell COUNT, SUM/MIN/MAX of each
// aggCols column, and posting lists. Subsequent Aggregate calls on the
// table answer eligible single-table box queries from the stored
// partials (interior cells) plus posting-list scans (boundary cells)
// until the table grows or is replaced. The build is idempotent: when
// the registered grid is current and already covers the same columns
// and aggregate columns it is kept as is.
func (e *Engine) BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	if g := e.grid(table, t); g != nil && g.HasAggs() && sameColumns(g.Columns(), columns) {
		all := true
		for _, c := range aggCols {
			if g.AggIndex(c) < 0 {
				all = false
				break
			}
		}
		if all {
			return nil
		}
	}
	g, err := index.BuildAgg(t, columns, aggCols, binsPerDim, e.workers())
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.grids[strings.ToLower(table)] = g
	e.mu.Unlock()
	return nil
}

// sameColumns reports case-insensitive equality of two ordered column
// lists.
func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// DropGridIndex removes a table's grid index.
func (e *Engine) DropGridIndex(table string) {
	e.mu.Lock()
	delete(e.grids, strings.ToLower(table))
	e.mu.Unlock()
}

// grid returns the table's registered grid index, or nil when none is
// registered or it was not built from t, the table the caller bound, at
// its current row count: a grid of a grown or replaced table would miss
// rows, so the scan path answers instead.
func (e *Engine) grid(table string, t *data.Table) *index.Grid {
	e.mu.RLock()
	g := e.grids[strings.ToLower(table)]
	e.mu.RUnlock()
	if g == nil || !g.BuiltFrom(t) {
		return nil
	}
	return g
}

// Aggregate executes the query restricted to the violation region and
// returns the aggregate partial over the qualifying result tuples.
//
// The region has one interval per query dimension (in q.Dims order): a
// result tuple qualifies iff its violation vector lies inside the
// region. PrefixRegion yields whole refined queries; CellRegion yields
// the cell sub-queries of §5.1.1.
func (e *Engine) Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	b, err := e.bind(q)
	if err != nil {
		return agg.Zero(), err
	}
	return e.aggregateBound(b, region)
}

// aggregateBound executes one bound region. With an observer attached
// it also times the execution into the "evaluate" phase histogram and
// emits a debug-level engine.query event; without one, the only
// instrumentation cost is a nil pointer load.
func (e *Engine) aggregateBound(b *binding, region relq.Region) (agg.Partial, error) {
	eo := e.obsState.Load()
	if eo == nil {
		return e.aggregateRegion(b, region, nil)
	}
	sp := eo.o.StartPhase("evaluate")
	p, err := e.aggregateRegion(b, region, eo)
	d := sp.End()
	if eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.query",
			"tables", len(b.tables), "dims", len(region),
			"duration_ms", float64(d.Microseconds())/1000,
			"err", err != nil)
	}
	return p, err
}

func (e *Engine) aggregateRegion(b *binding, region relq.Region, eo *engineObs) (agg.Partial, error) {
	if len(region) != len(b.q.Dims) {
		return agg.Zero(), fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(b.q.Dims))
	}
	e.stats.Load().queries.Add(1)
	if eo != nil {
		eo.queries.Add(1)
	}
	if region.Empty() {
		return agg.Zero(), nil
	}

	// Grid-index emptiness check (§7.4): conservative per-table test
	// over the select dimensions.
	for ti := range b.tables {
		if e.cellProvablyEmpty(b, region, ti) {
			e.stats.Load().cellsSkipped.Add(1)
			if eo != nil {
				eo.cells.Add(1)
				eo.o.Debug("engine.grid_skip", "table", b.q.Tables[ti])
			}
			return agg.Zero(), nil
		}
	}

	// Box-aggregate kernel: eligible single-table queries are answered
	// from the aggregate grid's stored partials and posting lists.
	if p, ok, err := e.boxAggregate(b, region, eo); ok || err != nil {
		return p, err
	}

	// Phase 1: per-table candidate scan. A static attach plan
	// (computable before any scan, since pickNext never looks at
	// candidates) enables scan-level semi-join pushdown: a table whose
	// planned attach edge is an equi edge to an already-scanned table
	// is pre-filtered by that table's key set, shrinking the join build
	// side before it is ever built.
	var plan []planEdge
	if len(b.tables) > 1 {
		plan = e.attachPlan(b)
	}
	cands := make([][]int32, len(b.tables))
	for ti := range b.tables {
		c, err := e.vscanTable(b, region, ti, semiPredFor(b, plan, cands, ti))
		if err != nil {
			return agg.Zero(), err
		}
		cands[ti] = c
		if len(cands[ti]) == 0 {
			return agg.Zero(), nil
		}
	}

	// Phase 2: join.
	tuples, order, err := e.join(b, region, cands)
	if err != nil {
		return agg.Zero(), err
	}

	// Phase 3: final filter + aggregate.
	return e.finalizeVec(b, region, tuples, order)
}

// cellProvablyEmpty consults a registered grid index to prove the
// region empty on table ti without scanning. It is conservative: it
// only answers true when the index covers every select dimension on the
// table and no occupied grid cell intersects any of the region's value
// boxes.
func (e *Engine) cellProvablyEmpty(b *binding, region relq.Region, ti int) bool {
	g := e.grid(b.q.Tables[ti], b.tables[ti])
	if g == nil {
		return false
	}
	gridCols := g.Columns()
	colPos := make(map[string]int, len(gridCols))
	for i, c := range gridCols {
		colPos[strings.ToLower(c)] = i
	}

	// Each local select dimension maps its violation interval to one or
	// two value intervals on its column; the cross product of the
	// per-dimension alternatives forms the boxes to test.
	type alt struct {
		pos       int
		intervals []index.Interval
	}
	var alts []alt
	covered := 0
	for _, sd := range b.selDims {
		if sd.tbl != ti {
			continue
		}
		pos, ok := colPos[strings.ToLower(sd.dim.Col.Column)]
		if !ok {
			return false // index does not cover this dimension
		}
		ivs := valueIntervals(sd.dim, region[sd.di])
		if len(ivs) == 0 {
			return true // dimension interval admits no values at all
		}
		alts = append(alts, alt{pos: pos, intervals: ivs})
		covered++
	}
	if covered == 0 {
		return false // nothing to prove with
	}

	box := make([]index.Interval, len(gridCols))
	var walk func(i int) bool // returns true if some box is occupied
	walk = func(i int) bool {
		if i == len(alts) {
			for j := range box {
				used := false
				for _, a := range alts {
					if a.pos == j {
						used = true
					}
				}
				if !used {
					box[j] = index.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
				}
			}
			occ, err := g.AnyInBox(box)
			return err != nil || occ // on error, assume occupied
		}
		for _, iv := range alts[i].intervals {
			box[alts[i].pos] = iv
			if walk(i + 1) {
				return true
			}
		}
		return false
	}
	return !walk(0)
}

// valueIntervals maps a violation interval to the value interval(s) it
// admits on the dimension's column (closed, conservative).
func valueIntervals(d *relq.Dimension, iv relq.ViolInterval) []index.Interval {
	if iv.Hi < 0 {
		return nil
	}
	switch d.Kind {
	case relq.SelectLE:
		hi := d.BoundAt(iv.Hi)
		lo := math.Inf(-1)
		if iv.Lo >= 0 {
			lo = d.BoundAt(iv.Lo)
		}
		return []index.Interval{{Lo: lo, Hi: hi}}
	case relq.SelectGE:
		lo := d.BoundAt(iv.Hi)
		hi := math.Inf(1)
		if iv.Lo >= 0 {
			hi = d.BoundAt(iv.Lo)
		}
		return []index.Interval{{Lo: lo, Hi: hi}}
	case relq.SelectEQ:
		bandHi := d.BoundAt(iv.Hi)
		if iv.Lo <= 0 {
			return []index.Interval{{Lo: d.Bound - bandHi, Hi: d.Bound + bandHi}}
		}
		bandLo := d.BoundAt(iv.Lo)
		return []index.Interval{
			{Lo: d.Bound - bandHi, Hi: d.Bound - bandLo},
			{Lo: d.Bound + bandLo, Hi: d.Bound + bandHi},
		}
	default:
		return []index.Interval{{Lo: math.Inf(-1), Hi: math.Inf(1)}}
	}
}

// join attaches tables one at a time, preferring hash equi-joins, then
// band joins, then cartesian products for disconnected components.
// Returns flattened tuples (stride = len(order)) of candidate-row
// positions translated to base-table row indexes, plus the attach order
// (table indexes).
func (e *Engine) join(b *binding, region relq.Region, cands [][]int32) ([]int32, []int, error) {
	nt := len(b.tables)
	if nt == 1 {
		out := make([]int32, len(cands[0]))
		copy(out, cands[0])
		return out, []int{0}, nil
	}

	attached := map[int]int{0: 0} // table index -> position in order
	order := []int{0}
	tuples := make([]int32, len(cands[0]))
	copy(tuples, cands[0])

	for len(order) < nt {
		next, edge := e.pickNext(b, attached)
		if next < 0 {
			// Disconnected: cartesian with the lowest unattached table.
			for ti := 0; ti < nt; ti++ {
				if _, ok := attached[ti]; !ok {
					next = ti
					break
				}
			}
		}
		var err error
		tuples, err = e.attachVec(b, region, tuples, order, attached, cands, next, edge)
		if err != nil {
			return nil, nil, err
		}
		attached[next] = len(order)
		order = append(order, next)
		if len(tuples) == 0 {
			return nil, order, nil
		}
	}
	return tuples, order, nil
}

// joinEdge describes how a new table connects to the attached set.
type joinEdge struct {
	equi *equiBind
	band *joinBind
	// flip is true when the new table is the edge's left side.
	flip bool
}

// pickNext finds an unattached table connected to the attached set,
// preferring equi edges.
func (e *Engine) pickNext(b *binding, attached map[int]int) (int, *joinEdge) {
	for i := range b.equiJoins {
		ej := &b.equiJoins[i]
		_, lIn := attached[ej.ltbl]
		_, rIn := attached[ej.rtbl]
		if lIn && !rIn {
			return ej.rtbl, &joinEdge{equi: ej}
		}
		if rIn && !lIn {
			return ej.ltbl, &joinEdge{equi: ej, flip: true}
		}
	}
	for i := range b.joinDims {
		jd := &b.joinDims[i]
		_, lIn := attached[jd.ltbl]
		_, rIn := attached[jd.rtbl]
		if lIn && !rIn {
			return jd.rtbl, &joinEdge{band: jd}
		}
		if rIn && !lIn {
			return jd.ltbl, &joinEdge{band: jd, flip: true}
		}
	}
	return -1, nil
}
