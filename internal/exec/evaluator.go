package exec

import (
	"context"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// Evaluator is the full evaluation-engine surface the rest of the
// repository programs against: the core.Evaluator query contract plus
// the operational controls (statistics, observability, indexes,
// caching, invalidation) that baselines, the harness and sessions use.
//
// Two implementations exist: *Engine — the monolithic executor — and
// *ShardedEvaluator, which scatter-gathers the same work across
// range-partitioned in-process shards. Everything that accepts an
// Evaluator is therefore shard-ready; a future multi-process/RPC shard
// backend only has to satisfy this interface to slot in (a transport
// swap, not a rewrite).
//
// Implementations must be deterministic — identical results for every
// worker count and shard count (modulo float SUM association across
// shard boundaries, bounded by agg.ApproxEqual's tolerance) — and must
// stop early when the batch context is cancelled.
type Evaluator interface {
	// Aggregate executes the query restricted to one region,
	// bypassing the region cache.
	Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error)
	// AggregateBatch executes one partial per region on a worker pool.
	AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error)
	// Catalog returns the full (unsharded) catalog: refinement models
	// read domain statistics from it.
	Catalog() *data.Catalog

	// Snapshot / ResetStats expose the cumulative work counters.
	Snapshot() Stats
	ResetStats()

	// SetParallelism bounds the evaluation worker pool(s); 0 restores
	// GOMAXPROCS. Results are identical for every worker count.
	SetParallelism(workers int)

	// SetAutoCluster(true) turns on workload-adaptive clustering: scans
	// feed per-column range statistics and the engine re-sorts tables
	// around the learned dominant column between batches (physical row
	// ids of later ViolationScan/Materialize calls refer to the new
	// layout; values and aggregates are unchanged).
	SetAutoCluster(on bool)

	// SetZOrder(true) admits two-column Z-order (space-filling-curve)
	// layouts into the auto-clustering election: when two range columns
	// both carry workload weight, the table may be re-laid along their
	// interleaved rank curve so zone maps prune on both axes. No-op
	// unless auto-clustering is enabled.
	SetZOrder(on bool)

	// SetObserver attaches (nil detaches) an observer; Observer returns
	// the current one (nil-safe for phase timing).
	SetObserver(o *obs.Observer)
	Observer() *obs.Observer

	// ViolationScan is the Top-k baseline's single-table primitive.
	ViolationScan(q *relq.Query) ([]RowViolations, error)

	// Grid-index management (§7.4 bitmap and aggregate-augmented grid).
	BuildGridIndex(table string, columns []string, binsPerDim int) error
	BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error
	DropGridIndex(table string)

	// EnableRegionCache attaches region caching with maxBytes total
	// capacity (<= 0 detaches); InvalidateRegionCache drops every
	// cached partial; InvalidateTable drops all state derived from one
	// table's contents after an in-place mutation.
	EnableRegionCache(maxBytes int64)
	InvalidateRegionCache()
	InvalidateTable(table string)
}

var (
	_ Evaluator = (*Engine)(nil)
	_ Evaluator = (*ShardedEvaluator)(nil)
)
