// Package ledger is a determinism-analyzer fixture for scope: it is a
// library package whose name is none of the simulator's, and every library
// package is patrolled. Each `// want` comment pins the diagnostic the line
// must earn; lines without one must stay silent.
package ledger

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Stamp reads the host clock.
func Stamp() time.Time {
	return time.Now() // want `time\.Now reads the host clock`
}

// Jitter draws from the process-global RNG.
func Jitter() int {
	return rand.Intn(4) // want `rand\.Intn draws from the process-global RNG`
}

// Render writes entries in map order, the shape of a disassembler that
// prints its entry table straight from the map.
func Render(entries map[string]int) string {
	var sb strings.Builder
	for name, addr := range entries {
		fmt.Fprintf(&sb, "%s %d\n", name, addr) // want `formatted output of loop-derived values`
	}
	return sb.String()
}
