package model

import (
	"math/rand"
	"testing"

	"columnsgd/internal/par"
)

// Allocation ceilings for the chunked gradient reduction. Both
// precisions run it once per worker per round, with per-chunk scratch,
// lists and the pool's job all pooled: a warm multi-chunk call must
// allocate nothing.
const (
	maxAllocsParallelGradient   = 0
	maxAllocsParallelGradient32 = 0
)

func TestParallelGradientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries on purpose")
	}
	const n, m = 512, 2048 // 32 chunks
	for _, mdl := range []Model{LR{}, mustFM(4)} {
		batch := synthBatch(n, m, 16, 0, 3)
		p := NewParams(mdl.ParamRows(), m)
		mdl.Init(p, rand.New(rand.NewSource(1)))
		stats := mdl.PartialStats(p, batch, nil)
		grad := NewParams(mdl.ParamRows(), m)
		p32, b32 := NarrowParams(p), narrowBatch(batch)
		stats32 := kernel32For(mdl).PartialStats32(p32, b32, nil)
		grad32 := NewParams32(mdl.ParamRows(), m)
		for _, procs := range []int{1, 2} {
			pool := par.New(procs)
			ParallelGradient(pool, mdl, p, batch, stats, grad) // warm
			got := testing.AllocsPerRun(100, func() { ParallelGradient(pool, mdl, p, batch, stats, grad) })
			if got > maxAllocsParallelGradient {
				t.Errorf("%s P=%d: ParallelGradient allocates %.1f/run, ceiling %d", mdl.Name(), procs, got, maxAllocsParallelGradient)
			}
			ParallelGradient32(pool, mdl, p32, b32, stats32, grad32)
			got = testing.AllocsPerRun(100, func() { ParallelGradient32(pool, mdl, p32, b32, stats32, grad32) })
			if got > maxAllocsParallelGradient32 {
				t.Errorf("%s P=%d: ParallelGradient32 allocates %.1f/run, ceiling %d", mdl.Name(), procs, got, maxAllocsParallelGradient32)
			}
			pool.Shutdown()
		}
	}
}
