package harness

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
)

// ZOrderWarmupBatches bounds how many warmup batches each learning
// engine gets before a study section stops waiting for its re-sort.
var ZOrderWarmupBatches = 40

// ZOrderStormWaves bounds the scheduler section: each wave appends a
// mergeable tail and completes a batch while a wider sibling batch is
// still in flight, until a sweep defers its layout action.
var ZOrderStormWaves = 12

// zorderQuery is the study's fixed two-range-dimension ACQ over users:
// age and income both carry every region's weight, with per-axis
// marginal masses around 0.3-0.55 — the regime where interleaving the
// two rank spaces beats a perfect sort on either single column.
func zorderQuery() (*relq.Query, []relq.Region) {
	q := &relq.Query{
		Tables: []string{"users"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	var regions []relq.Region
	for i := 0; i < 8; i++ {
		h := 4 + float64(i)*2
		regions = append(regions, relq.Region{{Lo: -1, Hi: h}, {Lo: -1, Hi: h}})
	}
	return q, regions
}

// zorderAppendTail appends k synthetic rows to the users table (schema
// order), growing the clustered layout's unsorted tail past the merge
// threshold so the next sweep has a layout action to defer or take.
func zorderAppendTail(t *data.Table, k int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	base := t.NumRows()
	for i := 0; i < k; i++ {
		if err := t.AppendRow(
			data.IntValue(int64(base+i)),
			data.IntValue(18+int64(rng.Intn(52))),
			data.FloatValue(rng.Float64()*200000),
			data.FloatValue(rng.Float64()*100),
			data.FloatValue(rng.Float64()*50),
			data.FloatValue(rng.Float64()*1000),
			data.StringValue("F"),
			data.StringValue("city"),
		); err != nil {
			return err
		}
	}
	return nil
}

// ZOrderStudy measures multi-dimensional data skipping on a fixed
// two-range-dimension users workload. Three engines over identical data
// run the same batch —
//
//   - "plain": generator layout, no clustering;
//   - "single": PR 9's workload-adaptive clustering without curve
//     layouts — the election picks the best single column;
//   - "zorder": the same election with Z-order admitted (SetZOrder);
//     the cost model picks the two-column interleave, so zone maps
//     prune on both axes.
//
// All partials are COUNTs, so every cross-layout comparison is
// bit-exact. Sections: steady-state timing (min of interleaved rounds),
// per-axis skip attribution on the curve layout, cost-modeled re-sort
// *scheduling* (concurrent batch storms force the sweep to defer layout
// actions — DeferredResorts), shard bit-identity at 1/2/4 shards, and a
// per-shard divergence study (an age-sorted parent split into range
// shards: interior shards keep the inherited layout, the low-age shard
// re-elects income — divergence wins exactly where the global layout is
// locally worthless).
//
// With cfg.Obs attached the study publishes the CI-guarded gauges
// acquire_zorder_speedup (single/zorder steady ratio), per-axis
// acquire_zorder_{age,income}_blocks_skipped, and
// acquire_zorder_deferred_resorts; the engines' own counters
// (acquire_autocluster_zorder_resorts_total,
// acquire_autocluster_deferred_resorts_total) flow through the same
// registry.
func ZOrderStudy(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	newCat := func() (*data.Catalog, error) {
		return tpch.GenerateUsers(tpch.UsersConfig{Rows: cfg.Rows, Zipf: cfg.Zipf, Seed: cfg.Seed})
	}
	newVariant := func(c Config) (exec.Evaluator, error) {
		cat, err := newCat()
		if err != nil {
			return nil, err
		}
		return newEngine(cat, c)
	}
	pe, err := newVariant(Config{Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	se, err := newVariant(Config{Obs: cfg.Obs, AutoCluster: true})
	if err != nil {
		return nil, err
	}
	ze, err := newVariant(Config{Obs: cfg.Obs, ZOrder: true})
	if err != nil {
		return nil, err
	}

	q, regions := zorderQuery()
	want, err := pe.AggregateBatch(ctx, q, regions)
	if err != nil {
		return nil, err
	}
	check := func(name string, e exec.Evaluator) error {
		got, err := e.AggregateBatch(ctx, q, regions)
		if err != nil {
			return err
		}
		for i := range got {
			if got[i].Count != want[i].Count || !agg.ApproxEqual(got[i], want[i], 0) {
				return fmt.Errorf("zorder: %s region %d diverged: %+v vs plain %+v",
					name, i, got[i], want[i])
			}
		}
		return nil
	}

	// Warmup both learning engines until their elections land (each
	// batch re-checks the partials — a layout rewrite must never change
	// an answer). The single-column engine must NOT have elected a
	// curve: its ZOrderResorts staying zero is the ablation guarantee.
	singleResortAt, zResortAt := -1, -1
	for batch := 1; batch <= ZOrderWarmupBatches; batch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if singleResortAt < 0 {
			if err := check("single", se); err != nil {
				return nil, err
			}
			if se.Snapshot().Resorts >= 1 {
				singleResortAt = batch
			}
		}
		if zResortAt < 0 {
			if err := check("zorder", ze); err != nil {
				return nil, err
			}
			if ze.Snapshot().ZOrderResorts >= 1 {
				zResortAt = batch
			}
		}
		if singleResortAt > 0 && zResortAt > 0 {
			break
		}
	}
	if zs := ze.Snapshot(); zs.ZOrderResorts < 1 {
		return nil, fmt.Errorf("zorder: no curve layout elected within %d warmup batches: %+v",
			ZOrderWarmupBatches, zs)
	}
	if ss := se.Snapshot(); ss.ZOrderResorts != 0 {
		return nil, fmt.Errorf("zorder: single-column engine elected a curve layout: %+v", ss)
	}

	// Steady-state timing: interleaved min-of-rounds, then one counted
	// run per variant for rows/blocks deltas and — on the curve layout —
	// the per-axis skip attribution (first firing predicate per block).
	type variant struct {
		name string
		e    exec.Evaluator
	}
	vars := []variant{{"plain", pe}, {"single", se}, {"zorder", ze}}
	best := make([]time.Duration, len(vars))
	for i := range best {
		best[i] = 1<<63 - 1
	}
	for round := 0; round < studyRounds; round++ {
		for vi := range vars {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := vars[vi].e.AggregateBatch(ctx, q, regions); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best[vi] {
				best[vi] = d
			}
		}
	}
	millis := make([]float64, len(vars))
	rows := make([]float64, len(vars))
	skipped := make([]float64, len(vars))
	axes := map[string]float64{}
	for vi := range vars {
		millis[vi] = float64(best[vi].Microseconds()) / 1000
		var zsBefore map[string]int64
		if vars[vi].name == "zorder" {
			zsBefore = ze.(*exec.Engine).ZoneSkips()
		}
		before := vars[vi].e.Snapshot()
		if err := check(vars[vi].name, vars[vi].e); err != nil {
			return nil, err
		}
		d := vars[vi].e.Snapshot().Sub(before)
		rows[vi] = float64(d.RowsScanned)
		skipped[vi] = float64(d.BlocksSkipped)
		if zsBefore != nil {
			for axis, n := range ze.(*exec.Engine).ZoneSkips() {
				axes[axis] = float64(n - zsBefore[axis])
			}
		}
	}
	ageSkips, incomeSkips := axes["users.age"], axes["users.income"]

	// Scheduler section: grow a mergeable tail on the curve-layout
	// table, then overlap batches so a sweep runs while a sibling batch
	// is still mid-flight and must defer the layout action
	// (DeferredResorts); the last batch out performs it. Free-running
	// goroutines won't reliably overlap sub-millisecond batches on a
	// small box, so each wave holds one wide batch in flight (spinning
	// on PendingBatches until it has bound) and completes a short batch
	// under it — that short batch's sweep sees the storm
	// deterministically. Appends change the answers, so this section
	// stops comparing to plain.
	zeng := ze.(*exec.Engine)
	stormRegions := make([]relq.Region, 0, len(regions)*32)
	for i := 0; i < 32; i++ {
		stormRegions = append(stormRegions, regions...)
	}
	deferredPerWave := make([]float64, 0, ZOrderStormWaves)
	for wave := 1; wave <= ZOrderStormWaves; wave++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := ze.Catalog().Table("users")
		if err != nil {
			return nil, err
		}
		if err := zorderAppendTail(t, 1100, int64(wave)); err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		var wideErr error
		var wideDone atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wideDone.Store(true)
			_, wideErr = ze.AggregateBatch(ctx, q, stormRegions)
		}()
		// A finished wide batch also breaks the spin: on a small box the
		// whole batch can run inside one scheduling slot, and a wave that
		// missed its storm just retries rather than spinning forever.
		for zeng.PendingBatches() == 0 && !wideDone.Load() && ctx.Err() == nil {
			runtime.Gosched()
		}
		if _, err := ze.AggregateBatch(ctx, q, regions); err != nil {
			return nil, err
		}
		wg.Wait()
		if wideErr != nil {
			return nil, wideErr
		}
		deferredPerWave = append(deferredPerWave, float64(ze.Snapshot().DeferredResorts))
		if ze.Snapshot().DeferredResorts > 0 {
			break
		}
	}
	deferred := 0.0
	if len(deferredPerWave) > 0 {
		deferred = deferredPerWave[len(deferredPerWave)-1]
	}

	// Shard bit-identity: the same learning stack at 1/2/4 shards must
	// return bit-identical COUNT partials every batch — before, across
	// and after each shard's own independently elected re-sort.
	shardCounts := []float64{1, 2, 4}
	shardMillis := make([]float64, len(shardCounts))
	shardResorts := make([]float64, len(shardCounts))
	for si, scf := range shardCounts {
		shards := int(scf)
		cat, err := newCat()
		if err != nil {
			return nil, err
		}
		sv, err := newEngine(cat, Config{Obs: cfg.Obs, ZOrder: true, Shards: shards})
		if err != nil {
			return nil, err
		}
		for batch := 1; batch <= ZOrderWarmupBatches; batch++ {
			if err := check(fmt.Sprintf("shards=%d", shards), sv); err != nil {
				return nil, err
			}
			if sv.Snapshot().ZOrderResorts >= int64(shards) {
				break
			}
		}
		bestD := time.Duration(1<<63 - 1)
		for round := 0; round < 3; round++ {
			start := time.Now()
			if err := check(fmt.Sprintf("shards=%d settled", shards), sv); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		shardMillis[si] = float64(bestD.Microseconds()) / 1000
		shardResorts[si] = float64(sv.Snapshot().Resorts)
	}

	// Divergence section: an age-sorted parent split into 2 range
	// shards. The high-age shard's inherited layout is excellent (the
	// workload's age hull excludes almost all of it), but the low-age
	// shard's is worthless (the hull admits nearly everything), so its
	// own sweep re-elects income while its sibling stays put — layouts
	// diverge per shard, and the win concentrates exactly in the shard
	// the uniform layout serves worst.
	divCat := func() (*data.Catalog, error) {
		cat, err := newCat()
		if err != nil {
			return nil, err
		}
		t, err := cat.Table("users")
		if err != nil {
			return nil, err
		}
		sorted, err := data.SortedBy(t, "age")
		if err != nil {
			return nil, err
		}
		cat.Replace(sorted)
		return cat, nil
	}
	uniformCat, err := divCat()
	if err != nil {
		return nil, err
	}
	uniform, err := newEngine(uniformCat, Config{Obs: cfg.Obs, Shards: 2})
	if err != nil {
		return nil, err
	}
	divergentCat, err := divCat()
	if err != nil {
		return nil, err
	}
	divergent, err := newEngine(divergentCat, Config{Obs: cfg.Obs, ZOrder: true, Shards: 2})
	if err != nil {
		return nil, err
	}
	if err := check("uniform", uniform); err != nil {
		return nil, err
	}
	for batch := 1; batch <= ZOrderWarmupBatches; batch++ {
		if err := check("divergent", divergent); err != nil {
			return nil, err
		}
		if divergent.Snapshot().Resorts >= 1 {
			break
		}
	}
	divMillis := make([]float64, 2)
	for vi, e := range []exec.Evaluator{uniform, divergent} {
		bestD := time.Duration(1<<63 - 1)
		for round := 0; round < studyRounds; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		divMillis[vi] = float64(bestD.Microseconds()) / 1000
	}

	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 1
		}
		return num / den
	}
	speedup := ratio(millis[1], millis[2]) // single / zorder
	vsPlain := ratio(millis[0], millis[2]) // plain / zorder
	divGain := ratio(divMillis[0], divMillis[1])
	if cfg.Obs != nil {
		cfg.Obs.Gauge("acquire_zorder_speedup",
			"Single-column auto-clustered / Z-order auto-clustered steady-state wall-clock ratio of the two-axis batch (ZOrderStudy).").Set(speedup)
		cfg.Obs.Gauge("acquire_zorder_vs_plain",
			"Plain-layout / Z-order auto-clustered steady-state wall-clock ratio (ZOrderStudy).").Set(vsPlain)
		cfg.Obs.Gauge("acquire_zorder_age_blocks_skipped",
			"Blocks skipped per steady-state batch attributed to the age axis of the curve layout (ZOrderStudy).").Set(ageSkips)
		cfg.Obs.Gauge("acquire_zorder_income_blocks_skipped",
			"Blocks skipped per steady-state batch attributed to the income axis of the curve layout (ZOrderStudy).").Set(incomeSkips)
		cfg.Obs.Gauge("acquire_zorder_deferred_resorts",
			"Layout actions the sweep deferred while concurrent batches were in flight during the storm section (ZOrderStudy).").Set(deferred)
		cfg.Obs.Gauge("acquire_zorder_divergence_gain",
			"Uniform-layout / per-shard-divergent steady-state wall-clock ratio on the age-sorted sharded stack (ZOrderStudy).").Set(divGain)
	}

	x := []float64{1, 2, 3} // 1 = plain, 2 = single, 3 = zorder
	waveX := make([]float64, len(deferredPerWave))
	for i := range waveX {
		waveX[i] = float64(i + 1)
	}
	return []Figure{
		{ID: "zorder.batch", Title: fmt.Sprintf("Steady-state two-axis AggregateBatch wall-clock: plain vs single-column auto vs Z-order auto (min of rounds; single re-sorted at batch %d, curve at %d)", singleResortAt, zResortAt),
			XLabel: "layout (1=plain, 2=single, 3=zorder)", X: x, YLabel: "ms/batch", Series: []Series{
				{Name: "ms", Y: millis},
				{Name: "speedup_vs_single", Y: []float64{ratio(millis[1], millis[0]), 1, speedup}},
			}},
		{ID: "zorder.rows", Title: "Rows scanned and blocks zone-skipped per steady-state batch",
			XLabel: "layout (1=plain, 2=single, 3=zorder)", X: x, YLabel: "count", Series: []Series{
				{Name: "rows_scanned", Y: rows},
				{Name: "blocks_skipped", Y: skipped},
			}},
		{ID: "zorder.axes", Title: "Per-axis skip attribution on the curve layout (first firing predicate per skipped block)",
			XLabel: "axis (1=age, 2=income)", X: []float64{1, 2}, YLabel: "blocks skipped/batch", Series: []Series{
				{Name: "blocks_skipped", Y: []float64{ageSkips, incomeSkips}},
			}},
		{ID: "zorder.scheduler", Title: "Re-sort scheduling under batch storms: cumulative deferred layout actions per wave (short batch completing under a wide in-flight batch)",
			XLabel: "storm wave", X: waveX, YLabel: "deferred re-sorts", Series: []Series{
				{Name: "deferred", Y: deferredPerWave},
			}},
		{ID: "zorder.sharded", Title: "Sharded curve-layout stack: steady-state batch and per-shard re-sorts (partials bit-identical at every shard count)",
			XLabel: "shards", X: shardCounts, YLabel: "ms/batch", Series: []Series{
				{Name: "ms", Y: shardMillis},
				{Name: "resorts", Y: shardResorts},
			}},
		{ID: "zorder.divergence", Title: "Per-shard layout divergence on an age-sorted parent (2 range shards): uniform inherited layout vs independent per-shard elections",
			XLabel: "stack (1=uniform, 2=divergent)", X: []float64{1, 2}, YLabel: "ms/batch", Series: []Series{
				{Name: "ms", Y: divMillis},
				{Name: "divergent_resorts", Y: []float64{0, float64(divergent.Snapshot().Resorts)}},
			}},
	}, nil
}
