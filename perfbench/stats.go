package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// pct returns the p-th percentile (nearest rank) of xs; 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tailPct is the highest of the usual tail percentiles that still has at
// least ten samples beyond it, so a reported tail is never one outlier.
func tailPct(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if n-(rankIndex(n, p)+1) >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 { return pct(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open span [a, b) in nanoseconds on the run clock.
type interval struct{ a, b int64 }

// coverage returns how much of [lo, hi) the intervals cover (merged, so
// overlaps count once) and, by an independent sweep, how much they leave
// uncovered. covered+gaps == hi-lo is the self-check the traced run
// applies to every round.
func coverage(ivs []interval, lo, hi int64) (covered, gaps int64) {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.a, lo), min(iv.b, hi)
		if a < b {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].a < clip[j].a })
	curA, curB := int64(-1), int64(-1)
	for _, iv := range clip {
		if curB < 0 || iv.a > curB {
			covered += curB - curA
			curA, curB = iv.a, iv.b
		} else if iv.b > curB {
			curB = iv.b
		}
	}
	covered += curB - curA

	// Sweep: walk boundary events in time order, counting depth; time
	// spent at depth zero is uncovered.
	type event struct {
		t int64
		d int
	}
	ev := make([]event, 0, 2*len(clip)+2)
	for _, iv := range clip {
		ev = append(ev, event{iv.a, +1}, event{iv.b, -1})
	}
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].t != ev[j].t {
			return ev[i].t < ev[j].t
		}
		return ev[i].d > ev[j].d // open before close at the same instant
	})
	depth, last := 0, lo
	for _, e := range ev {
		if depth == 0 {
			gaps += e.t - last
		}
		depth += e.d
		last = e.t
	}
	gaps += hi - last
	return covered, gaps
}

// fmtPct names a percentile for the table ("p99").
func fmtPct(p float64) string { return fmt.Sprintf("p%g", p) }
