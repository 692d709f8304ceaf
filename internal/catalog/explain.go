package catalog

import (
	"strings"

	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// explainResult renders the plan tree as a result set, so EXPLAIN [ANALYZE]
// flows through the unchanged query protocol: the REST job endpoints and
// the CLI render it like any other rows. Plain EXPLAIN shows each
// operator's estimates (nothing executed); EXPLAIN ANALYZE shows its row
// estimate beside the run's actuals — the SHOWPLAN RunTimeInformation
// pairing of §4 — and a footer with cacheState: EXPLAIN ANALYZE itself
// always executes (bypass), but the footer keeps the disposition visible
// where users already look for runtime facts.
func explainResult(root *plan.Node, analyze bool, cacheState string) *engine.Result {
	cols := []engine.ColMeta{
		{Name: "operator", Type: sqltypes.String},
		{Name: "object", Type: sqltypes.String},
		{Name: "estRows", Type: sqltypes.Float},
	}
	if analyze {
		cols = append(cols,
			engine.ColMeta{Name: "actualRows", Type: sqltypes.Int},
			engine.ColMeta{Name: "executions", Type: sqltypes.Int},
			engine.ColMeta{Name: "wallMs", Type: sqltypes.Float},
			engine.ColMeta{Name: "bytes", Type: sqltypes.Int},
			engine.ColMeta{Name: "workers", Type: sqltypes.Int},
			engine.ColMeta{Name: "vectorized", Type: sqltypes.Bool},
			engine.ColMeta{Name: "segsScanned", Type: sqltypes.Int},
			engine.ColMeta{Name: "segsSkipped", Type: sqltypes.Int},
		)
	} else {
		cols = append(cols,
			engine.ColMeta{Name: "io", Type: sqltypes.Float},
			engine.ColMeta{Name: "cpu", Type: sqltypes.Float},
			engine.ColMeta{Name: "totalCost", Type: sqltypes.Float},
			engine.ColMeta{Name: "vectorized", Type: sqltypes.Bool},
		)
	}
	res := &engine.Result{Cols: cols}
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		if n == nil {
			return
		}
		label := strings.Repeat("  ", depth) + n.PhysicalOp
		if n.LogicalOp != "" && n.LogicalOp != n.PhysicalOp {
			label += " (" + n.LogicalOp + ")"
		}
		row := append(make(storage.Row, 0, len(cols)),
			sqltypes.NewString(label), sqltypes.NewString(n.Object), sqltypes.NewFloat(n.NumRows))
		if analyze {
			a := n.Actual // ANALYZE executed the tree: every node carries one
			row = append(row, sqltypes.NewInt(a.Rows), sqltypes.NewInt(a.Executions),
				sqltypes.NewFloat(float64(a.Wall.Nanoseconds())/1e6), sqltypes.NewInt(a.Bytes),
				sqltypes.NewInt(a.Workers), sqltypes.NewBool(n.Vectorized),
				sqltypes.NewInt(a.SegmentsScanned), sqltypes.NewInt(a.SegmentsSkipped))
		} else {
			row = append(row, sqltypes.NewFloat(n.IO), sqltypes.NewFloat(n.CPU),
				sqltypes.NewFloat(n.Total), sqltypes.NewBool(n.Vectorized))
		}
		res.Rows = append(res.Rows, row)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if analyze && cacheState != "" {
		res.Rows = append(res.Rows, storage.Row{
			sqltypes.NewString("Result Cache"), sqltypes.NewString("cache: " + cacheState),
			sqltypes.NewFloat(0), sqltypes.NewInt(0), sqltypes.NewInt(0), sqltypes.NewFloat(0), sqltypes.NewInt(0),
			sqltypes.NewInt(0), sqltypes.NewBool(false), sqltypes.NewInt(0), sqltypes.NewInt(0),
		})
	}
	for _, row := range res.Rows {
		for _, v := range row {
			res.Bytes += int64(v.SizeBytes())
		}
	}
	return res
}
