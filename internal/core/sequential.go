package core

import (
	"fmt"
	"math/rand"

	"columnsgd/internal/dataset"
	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/vec"
)

// Sequential is the single-machine reference implementation of
// Algorithm 1. It shares the model kernels with the distributed engines,
// so tests can assert that ColumnSGD's distributed iterations produce the
// same parameters as the sequential ground truth when fed the same
// batches.
type Sequential struct {
	mdl    model.Model
	o      opt.Optimizer
	params *model.Params
	ds     *dataset.Dataset
	rng    *rand.Rand
	seed   int64
	batch  int
	iter   int64
}

// NewSequential builds a sequential trainer over an in-memory dataset.
func NewSequential(ds *dataset.Dataset, modelName string, modelArg int, optCfg opt.Config, batch int, seed int64) (*Sequential, error) {
	if ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if batch <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive")
	}
	mdl, err := model.New(modelName, modelArg)
	if err != nil {
		return nil, err
	}
	o, err := opt.New(optCfg)
	if err != nil {
		return nil, err
	}
	s := &Sequential{
		mdl:    mdl,
		o:      o,
		params: model.NewParams(mdl.ParamRows(), ds.NumFeatures),
		ds:     ds,
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		batch:  batch,
	}
	mdl.Init(s.params, rand.New(rand.NewSource(seed)))
	return s, nil
}

// Params exposes the current model (not a copy).
func (s *Sequential) Params() *model.Params { return s.params }

// Model returns the model kernels.
func (s *Sequential) Model() model.Model { return s.mdl }

// SampleBatch draws the iteration's batch by index, uniformly with
// replacement (matching the distributed sampler's distribution).
func (s *Sequential) SampleBatch(seed int64) model.Batch {
	r := rand.New(rand.NewSource(seed))
	b := model.Batch{Rows: make([]vec.Sparse, s.batch), Labels: make([]float64, s.batch)}
	for i := 0; i < s.batch; i++ {
		p := &s.ds.Points[r.Intn(s.ds.N())]
		b.Rows[i] = p.Features
		b.Labels[i] = p.Label
	}
	return b
}

// StepBatch runs one SGD step on a caller-provided batch and returns its
// loss under the pre-update model.
func (s *Sequential) StepBatch(b model.Batch) (float64, error) {
	stats := s.mdl.PartialStats(s.params, b, nil)
	loss := model.BatchLoss(s.mdl, b.Labels, stats)
	grad := model.NewParams(s.mdl.ParamRows(), s.params.Width()) // zeroed, as Gradient requires
	s.mdl.Gradient(s.params, b, stats, grad)
	if err := s.o.Apply(s.params, grad); err != nil {
		return 0, err
	}
	return loss, nil
}

// Step samples a batch and performs one iteration, returning the batch
// loss.
func (s *Sequential) Step() (float64, error) {
	b := s.SampleBatch(s.seed + s.iter)
	s.iter++
	return s.StepBatch(b)
}

// Run performs iters iterations and returns the final full-data loss.
func (s *Sequential) Run(iters int) (float64, error) {
	for i := 0; i < iters; i++ {
		if _, err := s.Step(); err != nil {
			return 0, err
		}
	}
	return s.FullLoss(), nil
}

// FullLoss evaluates the training loss over the whole dataset.
func (s *Sequential) FullLoss() float64 {
	b := model.Batch{Rows: make([]vec.Sparse, s.ds.N()), Labels: make([]float64, s.ds.N())}
	for i := range s.ds.Points {
		b.Rows[i] = s.ds.Points[i].Features
		b.Labels[i] = s.ds.Points[i].Label
	}
	stats := s.mdl.PartialStats(s.params, b, nil)
	return model.BatchLoss(s.mdl, b.Labels, stats)
}

// Accuracy evaluates classification accuracy over a dataset.
func (s *Sequential) Accuracy(ds *dataset.Dataset) float64 {
	return Accuracy(s.mdl, s.params, ds)
}

// Accuracy computes classification accuracy of a full model over a
// dataset using the model's prediction rule.
func Accuracy(mdl model.Model, full *model.Params, ds *dataset.Dataset) float64 {
	if ds.N() == 0 {
		return 0
	}
	correct := 0
	var statsBuf []float64
	for i := range ds.Points {
		b := model.Batch{Rows: []vec.Sparse{ds.Points[i].Features}, Labels: []float64{ds.Points[i].Label}}
		statsBuf = mdl.PartialStats(full, b, statsBuf[:0])
		if mdl.Predict(statsBuf) == ds.Points[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.N())
}
