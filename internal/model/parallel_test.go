package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"columnsgd/internal/par"
	"columnsgd/internal/vec"
)

// synthBatch builds a deterministic sparse batch over m features.
func synthBatch(n, m, nnz int, classes int, seed int64) Batch {
	r := rand.New(rand.NewSource(seed))
	b := Batch{Rows: make([]vec.Sparse, n), Labels: make([]float64, n)}
	for i := 0; i < n; i++ {
		idx := make([]int32, 0, nnz)
		val := make([]float64, 0, nnz)
		seen := map[int32]bool{}
		for len(idx) < nnz {
			j := int32(r.Intn(m))
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
			val = append(val, r.NormFloat64())
		}
		s, err := vec.NewSparse(idx, val)
		if err != nil {
			panic(err)
		}
		b.Rows[i] = s
		if classes > 0 {
			b.Labels[i] = float64(r.Intn(classes))
		} else if r.Intn(2) == 0 {
			b.Labels[i] = -1
		} else {
			b.Labels[i] = 1
		}
	}
	return b
}

func testModels(t *testing.T) []Model {
	t.Helper()
	mlr, err := NewMLR(3)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFM(4)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{LR{}, SVM{}, LeastSquares{}, mlr, fm}
}

// TestParallelStatsBitIdentical: for every model and every pool size,
// ParallelStats must match the sequential kernel bit for bit — chunking
// assigns slots, it never changes arithmetic.
func TestParallelStatsBitIdentical(t *testing.T) {
	const m = 600
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		for _, n := range []int{1, 16, 17, 100, 257} {
			batch := synthBatch(n, m, 12, classes, 7)
			p := NewParams(mdl.ParamRows(), m)
			mdl.Init(p, rand.New(rand.NewSource(3)))
			want := mdl.PartialStats(p, batch, nil)
			for _, procs := range []int{1, 2, 4, 7} {
				pool := par.New(procs)
				got := ParallelStats(pool, mdl, p, batch, nil)
				pool.Shutdown()
				if len(got) != len(want) {
					t.Fatalf("%s n=%d P=%d: %d stats, want %d", mdl.Name(), n, procs, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d P=%d: stat %d = %v, want %v", mdl.Name(), n, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestParallelGradientBitIdenticalAcrossP: the chunked gradient must be
// byte-stable across every pool size (including nil), and equal to the
// sequential kernel whenever the batch fits one chunk.
func TestParallelGradientBitIdenticalAcrossP(t *testing.T) {
	const m = 600
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		for _, n := range []int{1, 16, 40, 257} {
			batch := synthBatch(n, m, 12, classes, 11)
			p := NewParams(mdl.ParamRows(), m)
			mdl.Init(p, rand.New(rand.NewSource(5)))
			stats := mdl.PartialStats(p, batch, nil)

			var nilPool *par.Pool
			ref := NewParams(mdl.ParamRows(), m)
			ParallelGradient(nilPool, mdl, p, batch, stats, ref)

			if par.NumChunks(n, batchGrain(n)) <= 1 {
				seq := NewParams(mdl.ParamRows(), m)
				mdl.Gradient(p, batch, stats, seq)
				if !bitEqual(ref, seq) {
					t.Fatalf("%s n=%d: one-chunk parallel gradient differs from sequential kernel", mdl.Name(), n)
				}
			}
			for _, procs := range []int{2, 4, 7} {
				pool := par.New(procs)
				got := NewParams(mdl.ParamRows(), m)
				ParallelGradient(pool, mdl, p, batch, stats, got)
				pool.Shutdown()
				if !bitEqual(ref, got) {
					t.Fatalf("%s n=%d P=%d: gradient differs from inline chunked reference", mdl.Name(), n, procs)
				}
			}
		}
	}
}

// TestParallelGradientMatchesSequentialClosely: chunked mean-of-means
// reassembly is algebraically the batch mean; numerically it may differ
// from the row-order fold only in the last bits.
func TestParallelGradientMatchesSequentialClosely(t *testing.T) {
	const m, n = 400, 128
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		batch := synthBatch(n, m, 10, classes, 13)
		p := NewParams(mdl.ParamRows(), m)
		mdl.Init(p, rand.New(rand.NewSource(9)))
		stats := mdl.PartialStats(p, batch, nil)
		seq := NewParams(mdl.ParamRows(), m)
		mdl.Gradient(p, batch, stats, seq)
		chunked := NewParams(mdl.ParamRows(), m)
		var nilPool *par.Pool
		ParallelGradient(nilPool, mdl, p, batch, stats, chunked)
		for r := range seq.W {
			for j := range seq.W[r] {
				a, b := seq.W[r][j], chunked.W[r][j]
				if d := math.Abs(a - b); d > 1e-12*(1+math.Abs(a)) {
					t.Fatalf("%s grad[%d][%d]: sequential %v vs chunked %v", mdl.Name(), r, j, a, b)
				}
			}
		}
	}
}

func bitEqual(a, b *Params) bool {
	if a.Rows() != b.Rows() || a.Width() != b.Width() {
		return false
	}
	for r := range a.W {
		for j := range a.W[r] {
			if math.Float64bits(a.W[r][j]) != math.Float64bits(b.W[r][j]) {
				return false
			}
		}
	}
	return true
}

// denseGradient is the reduction ParallelGradient made before the sparse
// merge, kept as the reference: each chunk's mean gradient in its own
// zeroed full-width block, then grad zeroed and every block added with
// vec.Axpy in ascending chunk order.
func denseGradient(m Model, p *Params, batch Batch, stats []float64, grad *Params) {
	n := batch.Len()
	grain := batchGrain(n)
	grad.Zero()
	if par.NumChunks(n, grain) <= 1 {
		m.Gradient(p, batch, stats, grad)
		return
	}
	spp := m.StatsPerPoint()
	for c := 0; c < par.NumChunks(n, grain); c++ {
		lo, hi := par.Bounds(c, n, grain)
		g := NewParams(grad.Rows(), grad.Width())
		m.Gradient(p, Batch{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}, stats[lo*spp:hi*spp], g)
		for r := range grad.W {
			vec.Axpy(grad.W[r], float64(hi-lo)/float64(n), g.W[r])
		}
	}
}

// denseGradient32 is denseGradient for the float32 kernels.
func denseGradient32(m Model, p *Params32, batch Batch32, stats []float32, grad *Params32) {
	k := kernel32For(m)
	n := batch.Len()
	grain := batchGrain(n)
	grad.Zero()
	if par.NumChunks(n, grain) <= 1 {
		k.Gradient32(p, batch, stats, grad)
		return
	}
	spp := m.StatsPerPoint()
	for c := 0; c < par.NumChunks(n, grain); c++ {
		lo, hi := par.Bounds(c, n, grain)
		g := NewParams32(grad.Rows(), grad.Width())
		k.Gradient32(p, Batch32{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}, stats[lo*spp:hi*spp], g)
		for r := range grad.W {
			vec.Axpy32(grad.W[r], float32(hi-lo)/float32(n), g.W[r])
		}
	}
}

// ridgeModel is logistic regression plus an L2 term on every column: a
// custom model whose gradient writes outside the batch rows' columns,
// so the reduction must gather it over the full width. It does not
// embed LR, which would make it column-local.
type ridgeModel struct{}

func (ridgeModel) Name() string                             { return "test-ridge" }
func (ridgeModel) StatsPerPoint() int                       { return 1 }
func (ridgeModel) ParamRows() int                           { return 1 }
func (ridgeModel) Init(p *Params, r *rand.Rand)             { LR{}.Init(p, r) }
func (ridgeModel) PointLoss(y float64, s []float64) float64 { return LR{}.PointLoss(y, s) }
func (ridgeModel) Predict(s []float64) float64              { return LR{}.Predict(s) }
func (ridgeModel) PartialStats(p *Params, b Batch, dst []float64) []float64 {
	return LR{}.PartialStats(p, b, dst)
}
func (ridgeModel) Gradient(p *Params, b Batch, stats []float64, grad *Params) {
	LR{}.Gradient(p, b, stats, grad)
	for j, w := range p.W[0] {
		grad.W[0][j] += 1e-3 * w
	}
}

// registerRidge installs ridgeModel in the registry for the test's
// lifetime and returns it as New builds it.
func registerRidge(tb testing.TB) Model {
	tb.Helper()
	if err := Register("test-ridge", func(int) (Model, error) { return ridgeModel{}, nil }); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		registryMu.Lock()
		delete(registry, "test-ridge")
		registryMu.Unlock()
	})
	m, err := New("test-ridge", 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, local := m.(columnLocal); local {
		tb.Fatal("custom model claims column locality")
	}
	return m
}

// mergeCase builds inputs that reach the merge's corner cases: columns
// shared inside a chunk (nnz·rows is large against width), rows with no
// local columns, zero-coefficient rows (statistics saturated so that the
// LR/FM coefficient is exactly 0 and the SVM margin is met), and -0
// weights.
func mergeCase(mdl Model, n, width, nnz int, seed int64) (*Params, Batch, []float64) {
	r := rand.New(rand.NewSource(seed))
	classes := 0
	if mlr, ok := mdl.(MLR); ok {
		classes = mlr.Classes()
	}
	nnz = min(nnz, width)
	batch := Batch{Rows: make([]vec.Sparse, n), Labels: make([]float64, n)}
	for i := range batch.Rows {
		if classes > 0 {
			batch.Labels[i] = float64(r.Intn(classes))
		} else {
			batch.Labels[i] = float64(2*r.Intn(2) - 1)
		}
		if i%7 == 3 {
			continue // no columns in this partition
		}
		cols := r.Perm(width)[:nnz]
		val := make([]float64, nnz)
		for k := range val {
			val[k] = r.NormFloat64()
		}
		row, err := vec.NewSparse(toInt32(cols), val)
		if err != nil {
			panic(err)
		}
		batch.Rows[i] = row
	}
	p := NewParams(mdl.ParamRows(), width)
	mdl.Init(p, r)
	for _, row := range p.W {
		for j := range row {
			if r.Intn(5) == 0 {
				row[j] = math.Copysign(0, -1)
			} else {
				row[j] += 0.3 * r.NormFloat64()
			}
		}
	}
	stats := mdl.PartialStats(p, batch, nil)
	spp := mdl.StatsPerPoint()
	for i := 1; i < n; i += 4 {
		st := stats[i*spp : (i+1)*spp]
		clear(st)
		if classes > 0 {
			st[int(batch.Labels[i])] = 60
		} else {
			st[0] = 50 * batch.Labels[i]
		}
	}
	return p, batch, stats
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// junkParams returns a block filled with values a correct reduction must
// overwrite: NaN, -0 and large numbers.
func junkParams(rows, width int) *Params {
	g := NewParams(rows, width)
	for _, row := range g.W {
		for j := range row {
			row[j] = [...]float64{math.NaN(), math.Copysign(0, -1), 1e300}[j%3]
		}
	}
	return g
}

// checkMerge compares ParallelGradient (and, for models with float32
// kernels, ParallelGradient32) on pool with the dense reference, bit for
// bit.
func checkMerge(tb testing.TB, pool *par.Pool, mdl Model, p *Params, batch Batch, stats []float64) {
	tb.Helper()
	want := NewParams(p.Rows(), p.Width())
	denseGradient(mdl, p, batch, stats, want)
	got := junkParams(p.Rows(), p.Width())
	ParallelGradient(pool, mdl, p, batch, stats, got)
	if !bitEqual(got, want) {
		tb.Fatalf("%s n=%d P=%d: sparse merge differs from the dense reduction", mdl.Name(), batch.Len(), pool.Procs())
	}
	if _, ok := Kernel32Of(mdl); !ok {
		return
	}
	p32, b32 := NarrowParams(p), narrowBatch(batch)
	stats32 := vec.Narrow(nil, stats)
	want32 := NewParams32(p.Rows(), p.Width())
	denseGradient32(mdl, p32, b32, stats32, want32)
	got32 := NarrowParams(junkParams(p.Rows(), p.Width()))
	ParallelGradient32(pool, mdl, p32, b32, stats32, got32)
	for r := range want32.W {
		for j := range want32.W[r] {
			if math.Float32bits(got32.W[r][j]) != math.Float32bits(want32.W[r][j]) {
				tb.Fatalf("%s n=%d P=%d grad32[%d][%d]: %x, dense reduction %x", mdl.Name(), batch.Len(), pool.Procs(),
					r, j, math.Float32bits(got32.W[r][j]), math.Float32bits(want32.W[r][j]))
			}
		}
	}
}

// TestSparseMergeMatchesDense: the sparse ordered reduction equals the
// dense one bit for bit, for every built-in model and a registered
// custom model, at every pool size and batch shape, on the corner cases
// of mergeCase, at a width where chunks share columns and at one where
// they mostly do not.
func TestSparseMergeMatchesDense(t *testing.T) {
	models := append(testModels(t), registerRidge(t))
	for _, procs := range []int{1, 2, 3, 8} {
		pool := par.New(procs)
		for _, mdl := range models {
			for _, n := range []int{1, 16, 17, 1000} {
				for _, width := range []int{40, 3000} {
					p, batch, stats := mergeCase(mdl, n, width, 12, int64(n+width))
					checkMerge(t, pool, mdl, p, batch, stats)
				}
			}
		}
		pool.Shutdown()
	}
}

// TestSparseMergeNoDirtyScratch alternates a custom model (gathered over
// the full width) and a built-in of the same shape (gathered over its
// rows' columns) on one pool: pooled scratch shared between them must
// come back clean every time.
func TestSparseMergeNoDirtyScratch(t *testing.T) {
	ridge := registerRidge(t)
	pool := par.New(2)
	defer pool.Shutdown()
	for i := 0; i < 6; i++ {
		for _, mdl := range []Model{ridge, LR{}} {
			p, batch, stats := mergeCase(mdl, 300, 500, 9, int64(i))
			checkMerge(t, pool, mdl, p, batch, stats)
		}
	}
}

// TestParallelGradientScratchBounded: a cold 63-chunk call on a wide
// partition holds at most one full-width scratch block per running
// chunk, never one per chunk. The budget is (Procs+1) blocks plus the
// O(batch·nnz) gathered lists.
func TestParallelGradientScratchBounded(t *testing.T) {
	const n, width, nnz = 1000, 1 << 19, 32
	if nc := par.NumChunks(n, batchGrain(n)); nc != 63 {
		t.Fatalf("batch %d splits into %d chunks, want 63", n, nc)
	}
	batch := synthBatch(n, width, nnz, 0, 5)
	p := NewParams(1, width)
	stats := LR{}.PartialStats(p, batch, nil)
	grad := NewParams(1, width)
	for _, procs := range []int{1, 2, 4} {
		pool := par.New(procs)
		runtime.GC()
		runtime.GC() // two cycles empty every sync.Pool: the call is cold
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ParallelGradient(pool, LR{}, p, batch, stats, grad)
		runtime.ReadMemStats(&after)
		pool.Shutdown()
		budget := uint64((procs+1)*width*8 + 32*n*nnz)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("P=%d: cold call allocated %d bytes, budget %d (%d full-width blocks)",
				procs, got, budget, got/(width*8))
		}
	}
}

// FuzzChunkMerge draws shapes, column indices, coefficients and pool
// sizes, and checks the sparse merge against the dense reduction bit for
// bit in both precisions.
func FuzzChunkMerge(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(30), uint8(6), uint8(1), uint8(0))
	f.Add(int64(2), uint16(1000), uint16(64), uint8(16), uint8(2), uint8(4))
	f.Add(int64(3), uint16(17), uint16(5), uint8(5), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, width uint16, nnz, procs, which uint8) {
		models := append(testModels(t), registerRidge(t))
		mdl := models[int(which)%len(models)]
		w := 1 + int(width)%4096
		p, batch, stats := mergeCase(mdl, 1+int(n)%1200, w, int(nnz)%65, seed)
		pool := par.New(1 + int(procs)%8)
		defer pool.Shutdown()
		checkMerge(t, pool, mdl, p, batch, stats)
	})
}
