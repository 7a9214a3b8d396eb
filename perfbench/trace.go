package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
)

// Span kinds. A search span covers one core.RunContext call; its
// children are the evaluator batches it issued, each a prefetch or a
// probe (see batchKind). Append spans cover one batch of AppendRow
// calls between searches.
const (
	kindSearch   = "search"
	kindPrefetch = "prefetch"
	kindProbe    = "probe"
	kindAppend   = "append"
)

// span is one timed interval of a traced run. Times are offsets from
// the tracer's start.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Kind    string        `json:"kind"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	ACQ     int           `json:"acq,omitempty"` // search spans: 1 + the ACQ's index in the mix
	Regions int           `json:"regions,omitempty"`
	Rows    int           `json:"rows,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one run in memory until the run ends. A
// run has one client, so spans are only ever recorded from one
// goroutine and need no lock.
type tracer struct {
	t0     time.Time
	spans  []span
	search int // ID of the open search span, 0 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// record adds a finished span that started at start, under the open
// search span.
func (t *tracer) record(kind string, start time.Time, regions, rows int) {
	t.add(span{Parent: t.search, Kind: kind, Start: start.Sub(t.t0), End: time.Since(t.t0), Regions: regions, Rows: rows})
}

// beginSearch opens the search span of the mix's ACQ acq; endSearch
// closes it.
func (t *tracer) beginSearch(acq int) {
	t.search = t.add(span{Kind: kindSearch, ACQ: acq + 1, Start: time.Since(t.t0)})
}

func (t *tracer) endSearch() {
	t.spans[t.search-1].End = time.Since(t.t0)
	t.search = 0
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// batchKind classifies one AggregateBatch call. A §6 repartition probe
// evaluates a single whole refined query at an off-grid point: one
// region whose every interval starts at −1 (a prefix region) and
// reaches past the original predicate on some axis. Everything else is
// a prefetch: a layer's batch of cells, an on-demand cell, or the
// origin cell, whose prefix bounds are all 0.
func batchKind(regions []relq.Region) string {
	if len(regions) != 1 {
		return kindPrefetch
	}
	above := false
	for _, iv := range regions[0] {
		if iv.Lo != -1 {
			return kindPrefetch
		}
		if iv.Hi > 0 {
			above = true
		}
	}
	if above {
		return kindProbe
	}
	return kindPrefetch
}

// tracedEvaluator is the core.Evaluator a traced search runs against:
// it forwards to the engine and records one span per AggregateBatch
// call. It forwards Snapshot too, so the search's own engine-work
// attribution sees the same counters as without it.
type tracedEvaluator struct {
	e  *exec.Engine
	tr *tracer
}

func (te tracedEvaluator) Aggregate(q *relq.Query, r relq.Region) (agg.Partial, error) {
	return te.e.Aggregate(q, r)
}

func (te tracedEvaluator) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	start := time.Now()
	out, err := te.e.AggregateBatch(ctx, q, regions)
	te.tr.record(batchKind(regions), start, len(regions), 0)
	return out, err
}

func (te tracedEvaluator) Catalog() *data.Catalog { return te.e.Catalog() }

func (te tracedEvaluator) Snapshot() exec.Stats { return te.e.Snapshot() }

// searchBreakdown sums the child spans of each search span: the time
// and count of prefetch and probe batches and the regions they carried.
// Self time is what the search spent outside evaluator calls.
type searchBreakdown struct {
	searches                      int
	wall, prefetch, probe         time.Duration
	prefetchBatches, probeBatches int
	prefetchRegions, probeRegions int
}

func (b searchBreakdown) self() time.Duration { return b.wall - b.prefetch - b.probe }

func breakdown(spans []span) searchBreakdown {
	var b searchBreakdown
	for _, s := range spans {
		switch s.Kind {
		case kindSearch:
			b.searches++
			b.wall += s.dur()
		case kindPrefetch:
			b.prefetch += s.dur()
			b.prefetchBatches++
			b.prefetchRegions += s.Regions
		case kindProbe:
			b.probe += s.dur()
			b.probeBatches++
			b.probeRegions += s.Regions
		}
	}
	return b
}
