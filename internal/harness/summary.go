package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/workload"
)

// Claim is one §8.5 headline claim with its measured value.
type Claim struct {
	ID       string
	Paper    string
	Measured string
	Holds    bool
}

// Summary re-runs the Figure 8 sweep at the given configuration and
// checks the paper's §8.5 conclusions programmatically — the machine-
// checkable core of EXPERIMENTS.md. Returns the claims and the figures
// they were computed from. Run at ≥30K rows: below that, Top-k's
// single sorted scan is cheap enough to win (the paper's own §8.5(3)
// caveat), and the corresponding claim legitimately deviates.
func Summary(ctx context.Context, cfg Config) ([]Claim, []Figure, error) {
	cfg = cfg.WithDefaults()
	figs, err := Figure8(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	timeF, errF, refF := figs[0], figs[1], figs[2]

	get := func(f Figure, name string) []float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y
			}
		}
		return nil
	}
	meanOf := func(v []float64) float64 {
		s, n := 0.0, 0
		for _, x := range v {
			if !math.IsNaN(x) {
				s += x
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return s / float64(n)
	}

	acqT := meanOf(get(timeF, "ACQUIRE"))
	tqT := meanOf(get(timeF, "TQGen"))
	tkT := meanOf(get(timeF, "Top-k"))

	var claims []Claim

	tqFactor := tqT / acqT
	claims = append(claims, Claim{
		ID:       "§8.5(1a)",
		Paper:    "ACQUIRE ~2 orders of magnitude faster than TQGen",
		Measured: fmt.Sprintf("TQGen/ACQUIRE = %.0fx on the ratio-sweep means", tqFactor),
		Holds:    tqFactor >= 30, // order-of-magnitude territory at any scale
	})
	bs, err := binSearchVsAcquire(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	bsFactor := bs.bsMillis / bs.acqMillis
	claims = append(claims, Claim{
		ID:    "§8.5(1b)",
		Paper: "ACQUIRE on average 2x faster than BinSearch",
		Measured: fmt.Sprintf("BinSearch/ACQUIRE = %.1fx (per-ratio medians of %d interleaved rounds)",
			bsFactor, summaryRounds),
		Holds: bsFactor >= 1.5,
	})
	execFactor := float64(bs.bsWork.Queries) / float64(bs.acqWork.Queries)
	rowsFactor := float64(bs.bsWork.RowsScanned) / float64(bs.acqWork.RowsScanned)
	claims = append(claims, Claim{
		ID:    "§8.5(1b) work",
		Paper: "BinSearch does more evaluation-layer work than ACQUIRE (the deterministic cause of 1b)",
		Measured: fmt.Sprintf("BinSearch/ACQUIRE engine executions = %.2fx, rows touched = %.2fx",
			execFactor, rowsFactor),
		Holds: execFactor >= 1.5 && rowsFactor >= 1.5,
	})
	tkFactor := tkT / acqT
	claims = append(claims, Claim{
		ID:       "§8.5(3)",
		Paper:    "Top-k about 3.7x slower than ACQUIRE",
		Measured: fmt.Sprintf("Top-k/ACQUIRE = %.1fx", tkFactor),
		Holds:    tkFactor >= 2,
	})

	maxErr := 0.0
	for _, v := range get(errF, "ACQUIRE") {
		if !math.IsNaN(v) && v > maxErr {
			maxErr = v
		}
	}
	claims = append(claims, Claim{
		ID:       "§8.5(2)",
		Paper:    "ACQUIRE aggregate error always below the threshold",
		Measured: fmt.Sprintf("max ACQUIRE error %.4f vs δ=%.4f", maxErr, cfg.Delta),
		Holds:    maxErr <= cfg.Delta+1e-9,
	})

	// Refinement: worst baseline over ACQUIRE at the hardest ratio.
	acqR := get(refF, "ACQUIRE")
	worstFactor := 0.0
	for i := range acqR {
		if acqR[i] <= 0 {
			continue
		}
		for _, s := range refF.Series {
			if s.Name == "ACQUIRE" || math.IsNaN(s.Y[i]) {
				continue
			}
			if f := s.Y[i] / acqR[i]; f > worstFactor {
				worstFactor = f
			}
		}
	}
	claims = append(claims, Claim{
		ID:       "§8.5(4)",
		Paper:    "baseline refinement up to ~2x worse than ACQUIRE",
		Measured: fmt.Sprintf("worst baseline/ACQUIRE refinement = %.1fx", worstFactor),
		Holds:    worstFactor >= 1.5,
	})

	return claims, figs, nil
}

// summaryRounds is how many interleaved ACQUIRE/BinSearch rounds the
// §8.5(1b) claim times per ratio.
const summaryRounds = 7

// bsComparison is the §8.5(1b) measurement: the mean over the Figure 8
// ratios of each method's per-ratio median wall-clock, and each
// method's engine executions (Queries) and rows touched (RowsScanned)
// summed over the ratios.
type bsComparison struct {
	acqMillis, bsMillis float64
	acqWork, bsWork     exec.Stats
}

// binSearchVsAcquire times ACQUIRE and BinSearch on the Figure 8 ratio
// sweep in summaryRounds interleaved rounds per ratio and keeps each
// method's median, so load from other processes lands on both methods
// alike. Engine work comes from the first round: it is deterministic,
// so every round repeats it.
func binSearchVsAcquire(ctx context.Context, cfg Config) (bsComparison, error) {
	var out bsComparison
	e, err := usersEngine(cfg)
	if err != nil {
		return out, err
	}
	for _, r := range Ratios {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: r,
		})
		if err != nil {
			return out, err
		}
		if cfg.GridAgg {
			if err := ensureGridAgg(e, q); err != nil {
				return out, err
			}
		}
		var acqMs, bsMs []float64
		for round := 0; round < summaryRounds; round++ {
			e.InvalidateRegionCache() // every round executes its regions
			before := e.Snapshot()
			a, err := RunACQUIRE(ctx, e, q, acquireOpts(cfg))
			if err != nil {
				return out, err
			}
			mid := e.Snapshot()
			e.InvalidateRegionCache()
			b, err := RunBinSearch(ctx, e, q, cfg.Delta)
			if err != nil {
				return out, err
			}
			if round == 0 {
				aw, bw := mid.Sub(before), e.Snapshot().Sub(mid)
				out.acqWork.Queries += aw.Queries
				out.acqWork.RowsScanned += aw.RowsScanned
				out.bsWork.Queries += bw.Queries
				out.bsWork.RowsScanned += bw.RowsScanned
			}
			acqMs = append(acqMs, a.Millis)
			bsMs = append(bsMs, b.Millis)
		}
		out.acqMillis += median(acqMs) / float64(len(Ratios))
		out.bsMillis += median(bsMs) / float64(len(Ratios))
	}
	return out, nil
}

// median returns the middle value of v (the mean of the two middle
// values for even lengths); v is reordered.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// FormatClaims renders the claims as a verdict table.
func FormatClaims(claims []Claim) string {
	var b strings.Builder
	b.WriteString("Headline claims (§8.5), machine-checked:\n")
	for _, c := range claims {
		verdict := "HOLDS"
		if !c.Holds {
			verdict = "DEVIATES"
		}
		fmt.Fprintf(&b, "  [%s] %-8s %s\n           measured: %s\n", c.ID, verdict, c.Paper, c.Measured)
	}
	return b.String()
}
