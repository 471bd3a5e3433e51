//go:build !race

package lmu

const raceEnabled = false
