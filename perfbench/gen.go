package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"

	"columnsgd"
)

// population is the fixed problem a training workload samples its rows
// from: feature popularity (a power law over feature index) and the
// planted model that labels a row do not depend on the seed. Each seed
// draws a fresh sample of the same problem, so loss curves, and with them
// time_to_model_s against a fixed target, agree across seeds; with the
// planted model drawn per seed they do not.
type population struct {
	features, nnz int
	truth         []float64
	cdf           []float64 // nil: uniform popularity
}

func newPopulation(features, nnz int, skew float64, id int64) *population {
	r := rand.New(rand.NewSource(id))
	p := &population{features: features, nnz: nnz, truth: make([]float64, features)}
	for j := range p.truth {
		p.truth[j] = r.NormFloat64()
	}
	if skew > 0 {
		p.cdf = make([]float64, features)
		total := 0.0
		for j := range p.cdf {
			total += math.Pow(float64(j+1), -skew)
			p.cdf[j] = total
		}
		for j := range p.cdf {
			p.cdf[j] /= total
		}
	}
	return p
}

func (p *population) draw(r *rand.Rand) int32 {
	if p.cdf == nil {
		return int32(r.Intn(p.features))
	}
	u := r.Float64()
	return int32(min(sort.SearchFloat64s(p.cdf, u), p.features-1))
}

// sample draws n labelled rows: about nnz distinct features each
// (uniform in [nnz/2+1, nnz/2+nnz]), values |N(0,1)|+0.1, label the sign
// of the planted model's margin.
func (p *population) sample(n int, seed int64) []columnsgd.Example {
	r := rand.New(rand.NewSource(seed))
	out := make([]columnsgd.Example, n)
	for i := range out {
		k := min(p.nnz/2+r.Intn(p.nnz)+1, p.features)
		seen := make(map[int32]bool, k)
		idx := make([]int32, 0, k)
		for len(idx) < k {
			if j := p.draw(r); !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float64, k)
		margin := 0.0
		for t, j := range idx {
			val[t] = math.Abs(r.NormFloat64()) + 0.1
			margin += val[t] * p.truth[j]
		}
		label := 1.0
		if margin < 0 {
			label = -1
		}
		out[i] = columnsgd.Example{Label: label, Features: columnsgd.SparseVector{Indices: idx, Values: val}}
	}
	return out
}

// writeTrainingData draws the workload's rows from its population with the
// seed and writes them as LibSVM, before anything is timed.
func writeTrainingData(s trainSpec, seed int64, dir string) (string, error) {
	pop := newPopulation(s.features, s.nnz, s.skew, s.population)
	ds, err := columnsgd.FromExamples(pop.sample(s.rows, seed), s.features)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "train.libsvm")
	return path, ds.SaveLibSVMFile(path)
}
