// Package par provides the deterministic per-worker goroutine pool that
// parallelizes the engines' hot loops (worker statistics, gradients, shard
// scoring) across cores without perturbing a single bit of the result.
//
// # Determinism contract
//
// Parallel floating-point reductions are bit-stable only if the grouping
// of the arithmetic never depends on how many goroutines happen to run.
// The pool therefore guarantees:
//
//  1. Fixed chunk boundaries. Run splits [0,n) into chunks whose
//     boundaries are a pure function of (n, grain) — never of the pool's
//     parallelism, GOMAXPROCS, or scheduling. Chunk c covers
//     [c·grain, min((c+1)·grain, n)).
//  2. Ordered reduction. Each chunk writes only its own disjoint output
//     (slots, scratch buffers); callers combine per-chunk partials in
//     ascending chunk order after Run returns. No chunk ever observes or
//     accumulates into another chunk's state concurrently.
//
// Under this contract a pool of P goroutines, a pool of 1, a nil pool,
// and a shut-down pool all produce byte-identical results: the arithmetic
// performed is the same sequence of operations in every case, only the
// wall-clock interleaving differs. The golden-determinism and
// cross-parallelism property tests (chaos_test.go, parallel_test.go at
// the repo root) hold the engines to exactly this.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool executing chunked loops. The zero
// value is not usable; construct with New. A nil *Pool is valid and runs
// everything inline, preserving the chunked arithmetic.
type Pool struct {
	procs int
	tasks chan *job

	mu     sync.RWMutex
	closed bool
}

// New creates a pool of procs workers. procs <= 0 selects
// runtime.GOMAXPROCS(0). A pool of one worker spawns no goroutines at
// all — Run executes inline over the same chunks.
func New(procs int) *Pool {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	p := &Pool{procs: procs}
	if procs > 1 {
		p.tasks = make(chan *job, 4*procs)
		for i := 0; i < procs; i++ {
			go worker(p.tasks)
		}
		// Backstop for pools whose owner never calls Shutdown (e.g.
		// in-process test workers that are simply dropped): release the
		// worker goroutines when the pool becomes unreachable.
		runtime.SetFinalizer(p, (*Pool).Shutdown)
	}
	return p
}

func worker(tasks <-chan *job) {
	for j := range tasks {
		j.work()
		j.release()
	}
}

// Procs returns the configured parallelism.
func (p *Pool) Procs() int {
	if p == nil {
		return 1
	}
	return p.procs
}

// Shutdown stops the pool's workers. Idempotent and safe to call
// concurrently with Run: chunks already submitted complete, and any Run
// in flight (or issued afterwards) falls back to inline execution — with
// identical results, per the determinism contract.
func (p *Pool) Shutdown() {
	if p == nil || p.procs <= 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.tasks)
	runtime.SetFinalizer(p, nil)
}

// trySubmit enqueues j if the pool is open and has queue space.
func (p *Pool) trySubmit(j *job) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- j:
		return true
	default:
		return false
	}
}

// NumChunks returns how many chunks Run splits an n-item loop into for a
// given grain (≥1). It is a pure function of (n, grain).
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// Bounds returns chunk c's half-open range [lo, hi) of an n-item loop
// chunked at grain.
func Bounds(c, n, grain int) (lo, hi int) {
	if grain < 1 {
		grain = 1
	}
	lo = c * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Body is a chunked loop body: Chunk runs chunk c, covering [lo, hi).
// Passing a pointer that implements Body to RunBody allocates nothing,
// which is how the hot loops stay allocation-free; a closure handed to
// Run is heap-allocated whenever it captures variables.
type Body interface {
	Chunk(c, lo, hi int)
}

// funcBody adapts a plain function to Body.
type funcBody func(c, lo, hi int)

func (f funcBody) Chunk(c, lo, hi int) { f(c, lo, hi) }

// Run executes fn once per chunk of [0,n), passing the chunk index and
// its [lo, hi) bounds; see RunBody.
func (p *Pool) Run(n, grain int, fn func(chunk, lo, hi int)) {
	p.RunBody(n, grain, funcBody(fn))
}

// RunBody executes b.Chunk once per chunk of [0,n). The calling
// goroutine and up to Procs()-1 pool workers claim chunks in ascending
// order until none are left, and RunBody returns only when every chunk
// has finished. Chunks must confine their writes to chunk-local state;
// combine partials in ascending chunk order after RunBody returns (see
// the package comment).
func (p *Pool) RunBody(n, grain int, b Body) {
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	if p == nil || p.procs <= 1 || nc == 1 {
		for c := 0; c < nc; c++ {
			lo, hi := Bounds(c, n, grain)
			b.Chunk(c, lo, hi)
		}
		return
	}
	j := jobs.Get().(*job)
	j.body, j.n, j.grain, j.nc = b, n, grain, nc
	j.next.Store(0)
	j.done.Add(nc)
	j.refs.Store(1)
	for h := min(p.procs, nc) - 1; h > 0; h-- {
		j.refs.Add(1)
		if !p.trySubmit(j) {
			j.refs.Add(-1)
			break
		}
	}
	j.work()
	j.done.Wait()
	j.release()
}

// job is one RunBody call, shared by the caller and the workers it
// enlisted. Participants claim chunk indices from next; done counts
// unfinished chunks, and the caller waits on it alone, so it never waits
// for a helper that is still queued behind other work. refs counts the
// participants still holding the job: the last to let go recycles it.
type job struct {
	body         Body
	n, grain, nc int
	next         atomic.Int64
	done         sync.WaitGroup
	refs         atomic.Int32
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// work runs unclaimed chunks until none are left.
func (j *job) work() {
	for {
		c := int(j.next.Add(1) - 1)
		if c >= j.nc {
			return
		}
		lo, hi := Bounds(c, j.n, j.grain)
		j.body.Chunk(c, lo, hi)
		j.done.Done()
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		jobs.Put(j)
	}
}
