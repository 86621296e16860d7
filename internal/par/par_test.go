package par

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunkBoundsArePIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 100, 1023, 1024} {
		for _, grain := range []int{1, 7, 16, 64} {
			nc := NumChunks(n, grain)
			covered := 0
			prevHi := 0
			for c := 0; c < nc; c++ {
				lo, hi := Bounds(c, n, grain)
				if lo != prevHi {
					t.Fatalf("n=%d grain=%d chunk %d: lo %d, want %d", n, grain, c, lo, prevHi)
				}
				if hi <= lo || hi > n {
					t.Fatalf("n=%d grain=%d chunk %d: bad range [%d,%d)", n, grain, c, lo, hi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d grain=%d: chunks cover %d items", n, grain, covered)
			}
		}
	}
}

// sumChunked reduces per-chunk partials in ascending chunk order — the
// ordered reduction of the package contract.
func sumChunked(p *Pool, xs []float64, grain int) float64 {
	nc := NumChunks(len(xs), grain)
	partials := make([]float64, nc)
	p.Run(len(xs), grain, func(c, lo, hi int) {
		var s float64
		for _, v := range xs[lo:hi] {
			s += v
		}
		partials[c] = s
	})
	var total float64
	for _, s := range partials {
		total += s
	}
	return total
}

// TestBitIdenticalAcrossPoolSizes is the package's core property: the
// same chunked reduction is bit-identical for P = 1, 2, 4, 7, a nil
// pool, and a shut-down pool.
func TestBitIdenticalAcrossPoolSizes(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * math.Exp(float64(i%13)-6)
	}
	const grain = 16
	var nilPool *Pool
	ref := sumChunked(nilPool, xs, grain)
	for _, procs := range []int{1, 2, 4, 7} {
		p := New(procs)
		got := sumChunked(p, xs, grain)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("P=%d: sum %v differs from inline %v", procs, got, ref)
		}
		p.Shutdown()
		after := sumChunked(p, xs, grain)
		if math.Float64bits(after) != math.Float64bits(ref) {
			t.Errorf("P=%d after Shutdown: sum %v differs from inline %v", procs, after, ref)
		}
	}
}

func TestRunCoversEveryChunkExactlyOnce(t *testing.T) {
	p := New(4)
	defer p.Shutdown()
	const n, grain = 237, 10
	counts := make([]int32, NumChunks(n, grain))
	var mu sync.Mutex
	p.Run(n, grain, func(c, lo, hi int) {
		mu.Lock()
		counts[c]++
		mu.Unlock()
	})
	for c, k := range counts {
		if k != 1 {
			t.Fatalf("chunk %d ran %d times", c, k)
		}
	}
}

// TestConcurrentRunAndShutdown hammers the pool with Run calls from many
// goroutines racing a Shutdown — the exact interleaving the engines hit
// when a worker is torn down mid-iteration. Every Run must still cover
// all chunks (inline fallback), and nothing may panic or race. All
// synchronization is channel-based per TESTING.md conventions.
func TestConcurrentRunAndShutdown(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p := New(4)
		const runners = 6
		start := make(chan struct{})
		firstDone := make(chan struct{}, runners)
		var wg sync.WaitGroup
		for g := 0; g < runners; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 30; i++ {
					var mu sync.Mutex
					seen := 0
					p.Run(100, 8, func(c, lo, hi int) {
						mu.Lock()
						seen += hi - lo
						mu.Unlock()
					})
					if seen != 100 {
						t.Errorf("Run covered %d of 100 items", seen)
					}
					if i == 0 {
						firstDone <- struct{}{}
					}
				}
			}()
		}
		close(start)
		// Shut down while runners are mid-flight: after the first
		// iteration has completed somewhere, not after a sleep.
		<-firstDone
		p.Shutdown()
		p.Shutdown() // idempotent
		wg.Wait()
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Shutdown()
	if p.Procs() < 1 {
		t.Fatalf("Procs() = %d", p.Procs())
	}
	var nilPool *Pool
	if nilPool.Procs() != 1 {
		t.Fatalf("nil pool Procs() = %d, want 1", nilPool.Procs())
	}
}

// countBody counts the items its chunks cover.
type countBody struct{ items atomic.Int64 }

func (b *countBody) Chunk(_, lo, hi int) { b.items.Add(int64(hi - lo)) }

// TestRunBodyAllocs: a warm RunBody over a pointer Body allocates
// nothing, inline and on pool workers alike. The chunked gradient
// reduction's zero-allocation ceiling rests on this.
func TestRunBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries on purpose")
	}
	for _, procs := range []int{1, 2, 4} {
		p := New(procs)
		b := &countBody{}
		p.RunBody(1000, 16, b)
		b.items.Store(0)
		if got := testing.AllocsPerRun(100, func() { p.RunBody(1000, 16, b) }); got != 0 {
			t.Errorf("P=%d: RunBody allocates %.1f/run, want 0", procs, got)
		}
		if n := b.items.Load(); n != 101*1000 { // AllocsPerRun adds a warm-up call
			t.Errorf("P=%d: chunks covered %d items, want %d", procs, n, 101*1000)
		}
		p.Shutdown()
	}
}

// TestNestedRunCompletes: a chunk that itself runs a loop on the same
// pool must not deadlock. The caller claims chunks too and waits only
// for chunks, never for helpers still queued behind busy workers.
func TestNestedRunCompletes(t *testing.T) {
	p := New(2)
	defer p.Shutdown()
	var total atomic.Int64
	p.Run(64, 1, func(_, _, _ int) {
		p.Run(64, 1, func(_, lo, hi int) { total.Add(int64(hi - lo)) })
	})
	if got := total.Load(); got != 64*64 {
		t.Fatalf("nested runs covered %d items, want %d", got, 64*64)
	}
}
