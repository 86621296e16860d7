package model

import (
	"math/rand"
	"testing"

	"columnsgd/internal/par"
)

func benchSetup(b *testing.B, mdl Model, batch, m int) (*Params, Batch) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	p := NewParams(mdl.ParamRows(), m)
	mdl.Init(p, r)
	for i := range p.W {
		for j := range p.W[i] {
			p.W[i][j] += r.NormFloat64() * 0.1
		}
	}
	bt := randomBatch(r, mdl, batch, m)
	return p, bt
}

func benchModel(b *testing.B, mdl Model) {
	const batch, m = 256, 4096
	p, bt := benchSetup(b, mdl, batch, m)
	grad := NewParams(mdl.ParamRows(), m)
	var stats []float64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats = mdl.PartialStats(p, bt, stats[:0])
		grad.Zero()
		mdl.Gradient(p, bt, stats, grad)
	}
}

func BenchmarkLRKernels(b *testing.B)  { benchModel(b, LR{}) }
func BenchmarkSVMKernels(b *testing.B) { benchModel(b, SVM{}) }
func BenchmarkMLRKernels(b *testing.B) { benchModel(b, mustMLR(8)) }
func BenchmarkFMKernels(b *testing.B)  { benchModel(b, mustFM(8)) }

// BenchmarkParallelGradient times the chunked LR gradient reduction
// alone, inline (one-goroutine pool), on a wide partition (the paper's
// regime: 63 chunks over 500K columns) and a narrow one (32 chunks over
// 2048 columns).
func BenchmarkParallelGradient(b *testing.B) {
	for _, s := range []struct {
		name          string
		n, width, nnz int
	}{
		{"wide", 1000, 500_000, 32},
		{"narrow", 512, 2048, 16},
	} {
		b.Run(s.name, func(b *testing.B) {
			batch := synthBatch(s.n, s.width, s.nnz, 0, 1)
			p := NewParams(1, s.width)
			stats := LR{}.PartialStats(p, batch, nil)
			grad := NewParams(1, s.width)
			pool := par.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelGradient(pool, LR{}, p, batch, stats, grad)
			}
		})
	}
}
