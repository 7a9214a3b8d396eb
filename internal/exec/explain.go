package exec

import (
	"fmt"
	"math"
	"strings"

	"acquire/internal/relq"
)

// PlanStep describes one access or join decision of a query execution.
type PlanStep struct {
	// Table is the table this step concerns.
	Table string
	// Access is "index range scan", "full scan" or "grid-index skip".
	Access string
	// DrivingColumn names the column whose sorted index drives the
	// scan (empty for full scans).
	DrivingColumn string
	// EstimatedRows is the access path's candidate estimate.
	EstimatedRows int
	// Join is how this table attaches to the previously joined set:
	// "", "hash equi-join", "band join", "cartesian".
	Join string
}

// Plan is the engine's EXPLAIN output: the per-table access decisions
// and join order it would use for the query at the region, computed
// without executing.
type Plan struct {
	Steps []PlanStep
}

// String renders the plan.
func (p *Plan) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%d. %s: %s", i+1, s.Table, s.Access)
		if s.DrivingColumn != "" {
			fmt.Fprintf(&b, " on %s", s.DrivingColumn)
		}
		if s.EstimatedRows >= 0 {
			fmt.Fprintf(&b, " (~%d rows)", s.EstimatedRows)
		}
		if s.Join != "" {
			fmt.Fprintf(&b, ", attached by %s", s.Join)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Explain computes the access plan for the query at the region without
// executing it: for each table, the driving condition the scan would
// pick; then the join order and join methods.
func (e *Engine) Explain(q *relq.Query, region relq.Region) (*Plan, error) {
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	if len(region) != len(q.Dims) {
		return nil, fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(q.Dims))
	}
	plan := &Plan{}

	// Per-table access decisions, mirroring vscanTable's logic.
	access := make([]PlanStep, len(b.tables))
	for ti, t := range b.tables {
		n := t.NumRows()
		step := PlanStep{Table: t.Name(), Access: "full scan", EstimatedRows: n}

		if e.cellProvablyEmpty(b, region, ti) {
			step.Access = "grid-index skip"
			step.EstimatedRows = 0
			access[ti] = step
			continue
		}

		type drive struct {
			ord    int
			lo, hi float64
		}
		var drives []drive
		for i := range b.ranges[ti] {
			rb := b.ranges[ti][i]
			if !math.IsInf(rb.lo, -1) || !math.IsInf(rb.hi, 1) {
				drives = append(drives, drive{ord: rb.ord, lo: rb.lo, hi: rb.hi})
			}
		}
		for _, sd := range b.selDims {
			if sd.tbl != ti {
				continue
			}
			ivs := valueIntervals(sd.dim, region[sd.di])
			if len(ivs) == 1 {
				drives = append(drives, drive{ord: sd.ord, lo: ivs[0].Lo, hi: ivs[0].Hi})
			}
		}
		bestSize := n + 1
		bestOrd := -1
		for _, d := range drives {
			ix, err := e.sortedIndex(t, d.ord)
			if err != nil {
				return nil, err
			}
			if sz := ix.rangeSize(d.lo, d.hi); sz < bestSize {
				bestSize, bestOrd = sz, d.ord
			}
		}
		if bestOrd >= 0 && bestSize <= n/2 {
			step.Access = "index range scan"
			step.DrivingColumn = t.Schema().Columns[bestOrd].Name
			step.EstimatedRows = bestSize
		}
		access[ti] = step
	}

	// Join order, mirroring join()'s greedy connectivity walk.
	attached := map[int]int{0: 0}
	order := []int{0}
	joins := make([]string, len(b.tables))
	for len(order) < len(b.tables) {
		next, edge := e.pickNext(b, attached)
		how := "cartesian"
		if next < 0 {
			for ti := range b.tables {
				if _, ok := attached[ti]; !ok {
					next = ti
					break
				}
			}
		} else if edge.equi != nil {
			how = "hash equi-join"
		} else if edge.band != nil {
			how = "band join"
		}
		joins[next] = how
		attached[next] = len(order)
		order = append(order, next)
	}

	for _, ti := range order {
		s := access[ti]
		s.Join = joins[ti]
		plan.Steps = append(plan.Steps, s)
	}
	return plan, nil
}
