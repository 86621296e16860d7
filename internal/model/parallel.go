package model

import (
	"fmt"
	"sync"

	"columnsgd/internal/par"
)

// Deterministic chunking of a batch: boundaries are a pure function of
// the batch size (never of pool parallelism), per the par package
// contract. Small batches stay in one chunk — and one-chunk calls take
// the plain sequential kernel path, bit-identical to the historical
// arithmetic.
const (
	// minGrain is the smallest rows-per-chunk worth dispatching.
	minGrain = 16
	// maxBatchChunks bounds chunk count so dispatch overhead stays flat
	// as batches grow.
	maxBatchChunks = 64
)

// batchGrain returns the chunk grain for an n-row batch. Pure function
// of n.
func batchGrain(n int) int {
	g := (n + maxBatchChunks - 1) / maxBatchChunks
	if g < minGrain {
		g = minGrain
	}
	return g
}

// float is the element type of a parameter block.
type float interface{ ~float32 | ~float64 }

// kernels is one precision's model kernels bound to one call's
// parameters, batch and statistics; B is its parameter block type.
type kernels[T float, B any] interface {
	partialStats(lo, hi int, dst []T) []T // appends rows [lo, hi)'s statistics
	gradient(g B, lo, hi int)             // accumulates rows [lo, hi)'s mean gradient
	cols(i int) []int32                   // row i's column indices
	newBlock(rows, width int) B           // a zeroed block
	cells(g B) [][]T                      // a block's parameter rows
}

// kernel64 is the float64 kernels.
type kernel64 struct {
	m     Model
	p     *Params
	batch Batch
	stats []float64
	spp   int
}

func (k kernel64) cols(i int) []int32             { return k.batch.Rows[i].Indices }
func (kernel64) newBlock(rows, width int) *Params { return NewParams(rows, width) }
func (kernel64) cells(g *Params) [][]float64      { return g.W }

func (k kernel64) partialStats(lo, hi int, dst []float64) []float64 {
	return k.m.PartialStats(k.p, Batch{Rows: k.batch.Rows[lo:hi], Labels: k.batch.Labels[lo:hi]}, dst)
}

func (k kernel64) gradient(g *Params, lo, hi int) {
	k.m.Gradient(k.p, Batch{Rows: k.batch.Rows[lo:hi], Labels: k.batch.Labels[lo:hi]}, k.stats[lo*k.spp:hi*k.spp], g)
}

// ParallelStats computes m.PartialStats over batch, fanning fixed row
// chunks across pool (nil pool ⇒ inline). The result is bit-identical to
// the sequential m.PartialStats call for every pool size: each point's
// statistics occupy a dedicated slot of the output, so chunking changes
// no arithmetic at all — only which goroutine fills which slots.
//
// dst is reused when it has capacity, like Model.PartialStats.
func ParallelStats(pool *par.Pool, m Model, p *Params, batch Batch, dst []float64) []float64 {
	return parallelStats(pool, m, kernel64{m: m, p: p, batch: batch}, batch.Len(), dst)
}

// parallelStats is ParallelStats for either precision.
func parallelStats[T float, B any, K kernels[T, B]](pool *par.Pool, m Model, k K, n int, dst []T) []T {
	spp, grain := m.StatsPerPoint(), batchGrain(n)
	if pool.Procs() == 1 || par.NumChunks(n, grain) <= 1 {
		return k.partialStats(0, n, dst)
	}
	if cap(dst) < n*spp {
		dst = make([]T, n*spp)
	}
	dst = dst[:n*spp]
	pool.Run(n, grain, func(c, lo, hi int) {
		// Hand the kernel a zero-length slice with exactly the chunk's
		// capacity: a conforming kernel appends in place and the chunk's
		// statistics land directly in dst[lo*spp:hi*spp].
		out := k.partialStats(lo, hi, dst[lo*spp:lo*spp:hi*spp])
		if len(out) != (hi-lo)*spp {
			panic(fmt.Sprintf("model: %s kernel returned %d stats for a %d-row chunk (want %d)",
				m.Name(), len(out), hi-lo, (hi-lo)*spp))
		}
		if &out[0] != &dst[lo*spp] {
			// The kernel reallocated; copy the chunk back into its slot.
			copy(dst[lo*spp:hi*spp], out)
		}
	})
	return dst
}

// columnLocal is carried by models whose gradient writes only the batch
// rows' columns (all the built-ins), so a chunk's scratch is gathered at
// those columns alone; other models are gathered over the full width.
type columnLocal interface{ columnLocal() }

func (linear) columnLocal() {}
func (MLR) columnLocal()    {}
func (FM) columnLocal()     {}

// chunkList is one chunk's gathered gradient: column idx[k] holds
// vals[k·rows : (k+1)·rows], one value per parameter row.
type chunkList[T float] struct {
	idx  []int32
	vals []T
}

// gather moves columns cols of every row of w into the list and
// re-zeroes them, skipping columns outside w as the kernels do. A column
// gathered twice (rows of a chunk share it) yields zeros the second
// time. Adding ±0 to grad changes no bit, since grad starts at +0 and so
// never holds -0; the one-row path leaves such columns out.
func (l *chunkList[T]) gather(w [][]T, cols []int32) {
	idx, vals := l.idx, l.vals
	if len(w) == 1 { // one parameter row (LR, SVM, least squares): hoist it
		w0 := w[0]
		for _, j := range cols {
			if int(j) < len(w0) {
				if v := w0[j]; v != 0 {
					idx, vals = append(idx, j), append(vals, v)
				}
				w0[j] = 0
			}
		}
		l.idx, l.vals = idx, vals
		return
	}
	for _, j := range cols {
		if int(j) < len(w[0]) {
			idx = append(idx, j)
			for _, row := range w {
				vals, row[j] = append(vals, row[j]), 0
			}
		}
	}
	l.idx, l.vals = idx, vals
}

// merge adds scale times the list into w.
func (l *chunkList[T]) merge(w [][]T, scale T) {
	if len(w) == 1 { // hoisted like gather's one-row path
		w0, vals := w[0], l.vals[:len(l.idx)]
		for k, j := range l.idx {
			w0[j] += scale * vals[k]
		}
		return
	}
	for k, j := range l.idx {
		for q, row := range w {
			row[j] += scale * l.vals[k*len(w)+q]
		}
	}
}

// chunkReduce is the pooled state of a chunked gradient call; reusing
// its scratch blocks and lists, a warm call allocates nothing.
type chunkReduce[T float, B any, K kernels[T, B]] struct {
	k           K
	rows, width int
	local       bool
	all         []int32 // 0..width-1, the columns gathered for non-local models
	lists       []chunkList[T]

	mu   sync.Mutex
	free []B // idle scratch blocks, all zero
}

// Chunk implements par.Body: the chunk's mean gradient goes into a zeroed
// scratch block and moves into the chunk's list, and the block goes back
// zeroed. Only as many blocks exist as chunks run at once.
func (r *chunkReduce[T, B, K]) Chunk(c, lo, hi int) {
	r.mu.Lock()
	var g B
	if n := len(r.free); n > 0 {
		g, r.free = r.free[n-1], r.free[:n-1]
	} else {
		g = r.k.newBlock(r.rows, r.width)
	}
	r.mu.Unlock()

	r.k.gradient(g, lo, hi)
	l := &r.lists[c]
	l.idx, l.vals = l.idx[:0], l.vals[:0]
	if r.local {
		for i := lo; i < hi; i++ {
			l.gather(r.k.cells(g), r.k.cols(i))
		}
	} else {
		l.gather(r.k.cells(g), r.all)
	}

	r.mu.Lock()
	r.free = append(r.free, g)
	r.mu.Unlock()
}

// reduceGradient overwrites grad with the batch-mean gradient of an
// n-row batch, for ParallelGradient and ParallelGradient32. A one-chunk
// batch runs the kernel straight into grad. Otherwise each fixed row
// chunk runs on pooled scratch and is gathered into a compact list
// (Chunk), and the lists merge into grad in ascending chunk order,
// scaled by chunkRows/batchRows. Every grad slot gets the same additions
// in the same order as a dense merge of full-width per-chunk blocks,
// less some additions of ±0 that change no bit: the result is that dense
// reduction's, bit for bit, at every pool size, at O(batch·nnz) per call
// instead of O(chunks·width) for column-local models.
func reduceGradient[T float, B any, K kernels[T, B]](pool *par.Pool, states *sync.Pool, k K, local bool, n int, grad B) {
	w := k.cells(grad)
	for _, row := range w {
		clear(row)
	}
	grain := batchGrain(n)
	nc := par.NumChunks(n, grain)
	if nc <= 1 {
		k.gradient(grad, 0, n)
		return
	}
	r, _ := states.Get().(*chunkReduce[T, B, K])
	if r == nil {
		r = new(chunkReduce[T, B, K])
	}
	if r.rows != len(w) || r.width != len(w[0]) {
		clear(r.free)
		r.free, r.all, r.rows, r.width = r.free[:0], r.all[:0], len(w), len(w[0])
	}
	for j := len(r.all); !local && j < r.width; j++ {
		r.all = append(r.all, int32(j))
	}
	for len(r.lists) < nc {
		r.lists = append(r.lists, chunkList[T]{})
	}
	r.k, r.local = k, local
	pool.RunBody(n, grain, r)
	for c := range r.lists[:nc] {
		lo, hi := par.Bounds(c, n, grain)
		r.lists[c].merge(w, T(hi-lo)/T(n))
	}
	r.k = *new(K) // drop the caller's batch
	states.Put(r)
}

var states64 sync.Pool

// ParallelGradient computes m.Gradient over batch into grad, overwriting
// it, fanning fixed row chunks across pool (nil pool ⇒ inline). Chunk
// boundaries depend only on the batch size and the chunks' mean
// gradients combine in a fixed order (see reduceGradient), so the result
// is bit-identical for every pool size, including nil and shut-down
// pools. One-chunk batches (≤ minGrain rows) take the plain sequential
// kernel, preserving historical bit patterns.
func ParallelGradient(pool *par.Pool, m Model, p *Params, batch Batch, stats []float64, grad *Params) {
	_, local := m.(columnLocal)
	reduceGradient(pool, &states64, kernel64{m, p, batch, stats, m.StatsPerPoint()}, local, batch.Len(), grad)
}
