package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"columnsgd/internal/vec"
)

func allModels(t *testing.T) []Model {
	t.Helper()
	mlr, err := NewMLR(4)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFM(3)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{LR{}, SVM{}, LeastSquares{}, mlr, fm}
}

func randomBatch(r *rand.Rand, mdl Model, b, m int) Batch {
	batch := Batch{Rows: make([]vec.Sparse, b), Labels: make([]float64, b)}
	for i := 0; i < b; i++ {
		var idx []int32
		var val []float64
		for j := 0; j < m; j++ {
			if r.Float64() < 0.4 {
				idx = append(idx, int32(j))
				val = append(val, r.NormFloat64())
			}
		}
		if len(idx) == 0 {
			idx, val = []int32{int32(r.Intn(m))}, []float64{1}
		}
		batch.Rows[i] = vec.Sparse{Indices: idx, Values: val}
		switch mm := mdl.(type) {
		case MLR:
			batch.Labels[i] = float64(r.Intn(mm.Classes()))
		case LeastSquares:
			batch.Labels[i] = r.NormFloat64()
		default:
			if r.Float64() < 0.5 {
				batch.Labels[i] = 1
			} else {
				batch.Labels[i] = -1
			}
		}
	}
	return batch
}

func randomParams(r *rand.Rand, mdl Model, m int) *Params {
	p := NewParams(mdl.ParamRows(), m)
	mdl.Init(p, r)
	for i := range p.W {
		for j := range p.W[i] {
			p.W[i][j] += r.NormFloat64() * 0.3
		}
	}
	return p
}

func TestNewFactory(t *testing.T) {
	cases := []struct {
		name string
		arg  int
		ok   bool
	}{
		{"lr", 0, true}, {"svm", 0, true}, {"linreg", 0, true},
		{"mlr", 3, true}, {"fm", 5, true},
		{"mlr", 1, false}, {"fm", 0, false}, {"nope", 0, false},
	}
	for _, tc := range cases {
		m, err := New(tc.name, tc.arg)
		if tc.ok && err != nil {
			t.Errorf("New(%q,%d): %v", tc.name, tc.arg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("New(%q,%d): expected error, got %v", tc.name, tc.arg, m)
		}
	}
}

func TestParamsBasics(t *testing.T) {
	p := NewParams(2, 3)
	if p.Rows() != 2 || p.Width() != 3 {
		t.Fatalf("shape %dx%d", p.Rows(), p.Width())
	}
	p.W[0][1] = 2
	p.W[1][2] = -3
	q := p.Clone()
	q.W[0][1] = 99
	if p.W[0][1] != 2 {
		t.Fatal("Clone aliases storage")
	}
	if p.NNZ() != 2 {
		t.Fatalf("NNZ = %d", p.NNZ())
	}
	if p.SizeBytes() != 48 {
		t.Fatalf("SizeBytes = %d", p.SizeBytes())
	}
	if got, want := p.Norm2(), math.Sqrt(13); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
	sum := p.Clone()
	if err := sum.Add(p); err != nil {
		t.Fatal(err)
	}
	if sum.W[0][1] != 4 || sum.W[1][2] != -6 {
		t.Fatalf("Add result %+v", sum.W)
	}
	sum.Scale(0.5)
	if sum.W[0][1] != 2 {
		t.Fatalf("Scale result %v", sum.W[0][1])
	}
	if err := p.Add(NewParams(1, 3)); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if err := p.Add(NewParams(2, 4)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	p.Zero()
	if p.NNZ() != 0 {
		t.Fatal("Zero left non-zeros")
	}
	var empty Params
	if empty.Width() != 0 {
		t.Fatal("empty width")
	}
}

// Gradient check by central finite differences: for every model, the
// analytic gradient from the statistics decomposition must match the
// numeric gradient of the batch loss. This validates both the statistics
// forms (appendix §VIII) and the Gradient implementations.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	const m = 7
	const eps = 1e-6
	r := rand.New(rand.NewSource(42))
	for _, mdl := range allModels(t) {
		p := randomParams(r, mdl, m)
		batch := randomBatch(r, mdl, 5, m)

		lossAt := func(q *Params) float64 {
			stats := mdl.PartialStats(q, batch, nil)
			return BatchLoss(mdl, batch.Labels, stats)
		}

		stats := mdl.PartialStats(p, batch, nil)
		grad := NewParams(mdl.ParamRows(), m)
		mdl.Gradient(p, batch, stats, grad)

		for row := 0; row < mdl.ParamRows(); row++ {
			for j := 0; j < m; j++ {
				plus := p.Clone()
				plus.W[row][j] += eps
				minus := p.Clone()
				minus.W[row][j] -= eps
				numeric := (lossAt(plus) - lossAt(minus)) / (2 * eps)
				analytic := grad.W[row][j]
				// SVM hinge is non-smooth at the margin; skip points where
				// the finite difference straddles the kink.
				if _, isSVM := mdl.(SVM); isSVM && math.Abs(numeric-analytic) > 1e-4 {
					continue
				}
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("%s: grad[%d][%d] analytic %.8f vs numeric %.8f",
						mdl.Name(), row, j, analytic, numeric)
				}
			}
		}
	}
}

// The central ColumnSGD decomposition property: partial statistics
// computed on column slices against co-partitioned parameter blocks sum to
// the full-row statistics, for every model.
func TestPropertyStatsDecompose(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		const m = 12
		k := int(kRaw)%4 + 1
		per := (m + k - 1) / k

		for _, mdl := range []Model{LR{}, SVM{}, LeastSquares{}, mustMLR(3), mustFM(2)} {
			p := randomParams(r, mdl, m)
			batch := randomBatch(r, mdl, 4, m)

			full := mdl.PartialStats(p, batch, nil)

			sum := make([]float64, len(full))
			for part := 0; part < k; part++ {
				lo := part * per
				hi := lo + per
				if hi > m {
					hi = m
				}
				if lo >= hi {
					continue
				}
				// Column-sliced params and rows.
				pp := NewParams(mdl.ParamRows(), hi-lo)
				for row := range pp.W {
					copy(pp.W[row], p.W[row][lo:hi])
				}
				pb := Batch{Rows: make([]vec.Sparse, batch.Len()), Labels: batch.Labels}
				for i := range batch.Rows {
					pb.Rows[i] = batch.Rows[i].SliceColumns(int32(lo), int32(hi))
				}
				partial := mdl.PartialStats(pp, pb, nil)
				for i := range partial {
					sum[i] += partial[i]
				}
			}
			for i := range full {
				if math.Abs(full[i]-sum[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mustMLR(k int) MLR {
	m, err := NewMLR(k)
	if err != nil {
		panic(err)
	}
	return m
}

func mustFM(f int) FM {
	m, err := NewFM(f)
	if err != nil {
		panic(err)
	}
	return m
}

func TestStatsShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, mdl := range allModels(t) {
		p := randomParams(r, mdl, 6)
		batch := randomBatch(r, mdl, 3, 6)
		stats := mdl.PartialStats(p, batch, nil)
		if len(stats) != 3*mdl.StatsPerPoint() {
			t.Errorf("%s: stats len %d, want %d", mdl.Name(), len(stats), 3*mdl.StatsPerPoint())
		}
		// dst reuse must not leak old values.
		stats2 := mdl.PartialStats(p, batch, stats)
		if len(stats2) != len(stats) {
			t.Errorf("%s: dst reuse changed length", mdl.Name())
		}
	}
}

func TestLRPointBehaviour(t *testing.T) {
	lr := LR{}
	// Perfectly classified point has near-zero loss.
	if l := lr.PointLoss(1, []float64{40}); l > 1e-10 {
		t.Fatalf("saturated loss = %v", l)
	}
	// Misclassified point has large loss ≈ margin.
	if l := lr.PointLoss(1, []float64{-40}); math.Abs(l-40) > 0.01 {
		t.Fatalf("misclassified loss = %v", l)
	}
	if lr.Predict([]float64{0.3}) != 1 || lr.Predict([]float64{-0.3}) != -1 {
		t.Fatal("predict sign wrong")
	}
}

func TestSVMZeroGradientWhenMarginMet(t *testing.T) {
	svm := SVM{}
	p := NewParams(1, 2)
	batch := Batch{
		Rows:   []vec.Sparse{{Indices: []int32{0}, Values: []float64{1}}},
		Labels: []float64{1},
	}
	grad := NewParams(1, 2)
	svm.Gradient(p, batch, []float64{2.0}, grad) // margin 1−2 < 0
	if grad.NNZ() != 0 {
		t.Fatalf("gradient should be zero past margin: %+v", grad.W)
	}
	svm.Gradient(p, batch, []float64{0.5}, grad) // margin violated
	if grad.W[0][0] != -1 {
		t.Fatalf("hinge gradient = %v, want -1", grad.W[0][0])
	}
}

func TestMLRSoftmaxStability(t *testing.T) {
	mlr := mustMLR(3)
	// Huge logits must not overflow.
	l := mlr.PointLoss(0, []float64{1000, 999, 998})
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("unstable loss %v", l)
	}
	if l > 2 {
		t.Fatalf("dominant class loss = %v, want small", l)
	}
	if got := mlr.Predict([]float64{1, 5, 2}); got != 1 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestFMYhatAndStats(t *testing.T) {
	fm := mustFM(2)
	// One point, two features, hand-computed.
	p := NewParams(3, 2)
	p.W[0] = []float64{0.5, -0.5} // w
	p.W[1] = []float64{1, 2}      // v_1
	p.W[2] = []float64{-1, 1}     // v_2
	x := vec.Sparse{Indices: []int32{0, 1}, Values: []float64{2, 3}}
	batch := Batch{Rows: []vec.Sparse{x}, Labels: []float64{1}}
	stats := fm.PartialStats(p, batch, nil)
	// s0 = (0.5·2 − 0.5·3) − ½[(1·2)²+(2·3)²] − ½[(−1·2)²+(1·3)²]
	wantS0 := (1.0 - 1.5) - 0.5*(4+36) - 0.5*(4+9)
	if math.Abs(stats[0]-wantS0) > 1e-12 {
		t.Fatalf("s0 = %v, want %v", stats[0], wantS0)
	}
	// d_1 = 1·2+2·3 = 8, d_2 = −2+3 = 1
	if stats[1] != 8 || stats[2] != 1 {
		t.Fatalf("d = %v,%v", stats[1], stats[2])
	}
	// ŷ = s0 + ½(64+1)
	wantY := wantS0 + 0.5*65
	if got := fm.yhat(stats); math.Abs(got-wantY) > 1e-12 {
		t.Fatalf("yhat = %v, want %v", got, wantY)
	}
	if fm.Predict(stats) != sign(wantY) {
		t.Fatal("FM predict mismatch")
	}
}

func TestFMInitRandomizesFactors(t *testing.T) {
	fm := mustFM(4)
	p := NewParams(fm.ParamRows(), 10)
	fm.Init(p, rand.New(rand.NewSource(1)))
	if vec.Norm2(p.W[0]) != 0 {
		t.Fatal("w should start at zero")
	}
	var factorNorm float64
	for f := 1; f <= 4; f++ {
		factorNorm += vec.Norm2(p.W[f])
	}
	if factorNorm == 0 {
		t.Fatal("factors should start non-zero")
	}
}

func TestBatchLossPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BatchLoss(LR{}, []float64{1, 1}, []float64{0.5})
}

func TestBatchNNZ(t *testing.T) {
	b := Batch{Rows: []vec.Sparse{
		{Indices: []int32{0, 1}, Values: []float64{1, 1}},
		{Indices: []int32{2}, Values: []float64{1}},
	}}
	if b.NNZ() != 3 || b.Len() != 2 {
		t.Fatalf("NNZ=%d Len=%d", b.NNZ(), b.Len())
	}
}

func TestSigmoidHelpersStable(t *testing.T) {
	for _, z := range []float64{-1000, -10, 0, 10, 1000} {
		if l := sigmoidLoss(z); math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			t.Errorf("sigmoidLoss(%v) = %v", z, l)
		}
	}
	if c := sigmoidCoeff(1, 1000); c != 0 {
		t.Errorf("saturated coeff = %v", c)
	}
	if c := sigmoidCoeff(1, 0); math.Abs(c+0.5) > 1e-12 {
		t.Errorf("coeff at 0 = %v, want -0.5", c)
	}
	if c := sigmoidCoeff(-1, -1000); c != 0 {
		t.Errorf("saturated neg coeff = %v", c)
	}
}
