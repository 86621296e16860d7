package columnsgd

import (
	"fmt"
	"math/rand"

	"columnsgd/internal/model"
	"columnsgd/internal/vec"
)

// CustomModel is the paper's programming framework (Fig. 12): implement a
// model as initModel / computeStat / updateModel callbacks and ColumnSGD
// (and the RowSGD baselines) will train it distributed, with reduceStat
// fixed to element-wise summation — the decomposition that makes
// column-parallel statistics work.
//
// The contract mirrors the built-in models:
//
//   - Parameters are ParamRows() vectors over the feature dimension; each
//     worker holds the column slice of every row.
//   - PartialStats computes, for each batch point, StatsPerPoint() partial
//     statistics from the local parameter slice and the local column slice
//     of the point's features. Partial statistics must sum across column
//     partitions to the full-row statistics (i.e. they must be linear in
//     the feature columns, like partial dot products).
//   - Gradient receives the aggregated statistics and produces the local
//     gradient block, averaged over the batch.
//
// Implementations must be safe for concurrent use by multiple workers.
type CustomModel interface {
	// StatsPerPoint returns the number of statistics per example.
	StatsPerPoint() int
	// ParamRows returns the number of parameter vectors per feature.
	ParamRows() int
	// Init fills a zeroed parameter block (rows × local width) with the
	// model's initial values.
	Init(params [][]float64, rng *rand.Rand)
	// PartialStats appends batch-point statistics to dst and returns it;
	// it must produce exactly len(rows)·StatsPerPoint() values.
	PartialStats(params [][]float64, rows []SparseVector, dst []float64) []float64
	// PointLoss evaluates one example's loss from aggregated statistics.
	PointLoss(label float64, stats []float64) float64
	// Gradient accumulates the batch-mean local gradient into grad
	// (same shape as params, zeroed on entry) from the aggregated
	// statistics.
	Gradient(params [][]float64, rows []SparseVector, labels []float64, stats []float64, grad [][]float64)
	// Predict maps aggregated statistics to a predicted label.
	Predict(stats []float64) float64
}

// RegisterModel installs a custom model under a name usable as
// Config.Model. Like gob type registration, every process involved in
// training (master and workers) must register the same name first; the
// default in-process workers share the registration automatically, and
// remote workers get it by linking the same code before ServeWorker.
func RegisterModel(name string, m CustomModel) error {
	if m == nil {
		return fmt.Errorf("columnsgd: nil custom model")
	}
	if m.StatsPerPoint() <= 0 || m.ParamRows() <= 0 {
		return fmt.Errorf("columnsgd: custom model %q must have positive StatsPerPoint and ParamRows", name)
	}
	return model.Register(name, func(arg int) (model.Model, error) {
		return customAdapter{name: name, impl: m}, nil
	})
}

// RegisteredModels lists custom model names.
func RegisteredModels() []string { return model.Registered() }

// customAdapter bridges the public CustomModel to the internal kernels.
type customAdapter struct {
	name string
	impl CustomModel
}

func (a customAdapter) Name() string       { return a.name }
func (a customAdapter) StatsPerPoint() int { return a.impl.StatsPerPoint() }
func (a customAdapter) ParamRows() int     { return a.impl.ParamRows() }

func (a customAdapter) Init(p *model.Params, rng *rand.Rand) {
	p.Zero()
	a.impl.Init(p.W, rng)
}

// toRows converts a batch's sparse views to the public type; slice
// headers only, the underlying index/value arrays are shared.
func toRows(rows []vec.Sparse) []SparseVector {
	out := make([]SparseVector, len(rows))
	for i, r := range rows {
		out[i] = SparseVector{Indices: r.Indices, Values: r.Values}
	}
	return out
}

func (a customAdapter) PartialStats(p *model.Params, batch model.Batch, dst []float64) []float64 {
	dst = a.impl.PartialStats(p.W, toRows(batch.Rows), dst[:0])
	if want := batch.Len() * a.impl.StatsPerPoint(); len(dst) != want {
		panic(fmt.Sprintf("columnsgd: custom model %q produced %d stats, want %d", a.name, len(dst), want))
	}
	return dst
}

func (a customAdapter) PointLoss(label float64, stats []float64) float64 {
	return a.impl.PointLoss(label, stats)
}

func (a customAdapter) Gradient(p *model.Params, batch model.Batch, stats []float64, grad *model.Params) {
	a.impl.Gradient(p.W, toRows(batch.Rows), batch.Labels, stats, grad.W)
}

func (a customAdapter) Predict(stats []float64) float64 {
	return a.impl.Predict(stats)
}
