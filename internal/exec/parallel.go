package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"acquire/internal/agg"
)

// parallelThreshold is the work size below which fan-out costs more
// than it saves.
const parallelThreshold = 65536

// workers returns the engine's worker count (Parallelism, defaulting
// to GOMAXPROCS, floored at 1).
func (e *Engine) workers() int {
	w := e.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetParallelism bounds the worker pool (the method form of the
// Parallelism field, shared with ShardedEvaluator through the
// Evaluator interface). 0 restores GOMAXPROCS.
func (e *Engine) SetParallelism(workers int) { e.Parallelism = workers }

// chunks splits [0, n) into at most k near-equal contiguous ranges.
func chunks(n, k int) [][2]int {
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// foldChunk is the fixed chunk length of parallelFold. It is a
// constant (not a function of worker count) so the merge tree — and
// therefore the float association of SUM/AVG — depends only on the
// input size, making fold results bit-identical across worker counts.
const foldChunk = parallelThreshold / 2

// fixedChunks splits [0, n) into contiguous ranges of length size
// (the last may be shorter).
func fixedChunks(n, size int) [][2]int {
	out := make([][2]int, 0, n/size+1)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// parallelFold folds chunk aggregates of [0, ntup) and merges them in
// chunk order. Chunk boundaries are a function of ntup alone and the
// merge order is fixed, so the result is deterministic: identical for
// every worker count and scheduling (results differ from a strictly
// sequential fold only by a fixed, chunk-shaped association of
// additions).
func (e *Engine) parallelFold(ntup int, fold func(lo, hi int) agg.Partial) agg.Partial {
	if ntup < parallelThreshold {
		return fold(0, ntup)
	}
	parts := fixedChunks(ntup, foldChunk)
	partials := make([]agg.Partial, len(parts))
	w := e.workers()
	if w > len(parts) {
		w = len(parts)
	}
	if w == 1 {
		for ci, c := range parts {
			partials[ci] = fold(c[0], c[1])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(parts) {
						return
					}
					partials[ci] = fold(parts[ci][0], parts[ci][1])
				}
			}()
		}
		wg.Wait()
	}
	out := agg.Zero()
	for _, p := range partials {
		out = agg.Merge(out, p)
	}
	return out
}
