//go:build race

package model

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so pooled paths allocate on purpose and
// allocation ceilings do not apply.
const raceEnabled = true
