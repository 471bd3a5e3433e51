//go:build race

package scenario

// raceEnabled reports a -race build, whose instrumentation allocates on
// paths that otherwise do not, so allocation pins skip under it.
const raceEnabled = true
