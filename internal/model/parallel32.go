package model

import (
	"fmt"
	"sync"

	"columnsgd/internal/par"
)

// kernel32For asserts the model's float32 kernels. Callers of the
// parallel f32 entry points have already validated Kernel32 support when
// precision was configured, so a miss here is a programming error.
func kernel32For(m Model) Kernel32 {
	if k, ok := m.(Kernel32); ok {
		return k
	}
	panic(fmt.Sprintf("model: %s has no float32 kernels", m.Name()))
}

// kernel32 is the float32 kernels.
type kernel32 struct {
	k     Kernel32
	p     *Params32
	batch Batch32
	stats []float32
	spp   int
}

func (k kernel32) cols(i int) []int32               { return k.batch.Rows[i].Indices }
func (kernel32) newBlock(rows, width int) *Params32 { return NewParams32(rows, width) }
func (kernel32) cells(g *Params32) [][]float32      { return g.W }

func (k kernel32) partialStats(lo, hi int, dst []float32) []float32 {
	return k.k.PartialStats32(k.p, Batch32{Rows: k.batch.Rows[lo:hi], Labels: k.batch.Labels[lo:hi]}, dst)
}

func (k kernel32) gradient(g *Params32, lo, hi int) {
	k.k.Gradient32(k.p, Batch32{Rows: k.batch.Rows[lo:hi], Labels: k.batch.Labels[lo:hi]}, k.stats[lo*k.spp:hi*k.spp], g)
}

// ParallelStats32 is the float32 twin of ParallelStats: bit-identical to
// a sequential PartialStats32 call for every pool size.
func ParallelStats32(pool *par.Pool, m Model, p *Params32, batch Batch32, dst []float32) []float32 {
	return parallelStats(pool, m, kernel32{k: kernel32For(m), p: p, batch: batch}, batch.Len(), dst)
}

var states32 sync.Pool

// ParallelGradient32 is the float32 twin of ParallelGradient, through
// the same reduction: bit-identical for every pool size.
func ParallelGradient32(pool *par.Pool, m Model, p *Params32, batch Batch32, stats []float32, grad *Params32) {
	_, local := m.(columnLocal)
	reduceGradient(pool, &states32, kernel32{kernel32For(m), p, batch, stats, m.StatsPerPoint()}, local, batch.Len(), grad)
}
