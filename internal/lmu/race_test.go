//go:build race

package lmu

// raceEnabled reports a -race build, whose sync.Pool drops pooled buffers at
// random, so allocation pins skip under it.
const raceEnabled = true
