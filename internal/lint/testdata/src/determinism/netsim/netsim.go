// Package netsim is a determinism-analyzer fixture. It is a library
// package, so all three determinism checks apply. Each `// want` comment
// pins the diagnostic the line must earn; lines without one must stay
// silent.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Clock exercises the wallclock check.
func Clock() time.Duration {
	start := time.Now()      // want `time\.Now reads the host clock`
	return time.Since(start) // want `time\.Since reads the host clock`
}

// Probe is a deliberate timing probe: the trailing directive suppresses the
// finding, and is counted as used.
func Probe() time.Time {
	return time.Now() //lint:allow wallclock fixture models a deliberate timing probe
}

// Misspelled carries a directive whose check no analyzer owns: it suppresses
// nothing, and is reported itself.
func Misspelled() int {
	//lint:allow wallclok fixture misspells the check name // want `//lint:allow names unknown check "wallclok"`
	return 0
}

// GlobalRand exercises the globalrand check; draws from a seeded generator
// pass.
func GlobalRand(r *rand.Rand) int {
	n := rand.Intn(10) // want `rand\.Intn draws from the process-global RNG`
	return n + r.Intn(10)
}

// Seeded constructors are exempt: they consume no global stream.
func Seeded() *rand.Rand {
	return rand.New(rand.NewSource(7))
}

// CollectUnsorted exercises maporder: loop-derived values appended to an
// outer slice with no later sort.
func CollectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `map iteration order escapes`
	}
	return out
}

// CollectSorted is the canonical collect-then-sort idiom: clean.
func CollectSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Requantify is clean: map-to-map stores are order-free by construction.
func Requantify(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Reduce is clean: commutative folds over map values do not observe order.
func Reduce(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// DrawPerKey exercises the RNG-in-map-range sink: the stream-to-key
// assignment depends on iteration order even though the draw count does not.
func DrawPerKey(m map[string]int, r *rand.Rand) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m {
		out[k] = r.Intn(3) // want `map iteration order escapes \(RNG draw inside map iteration\)`
	}
	return out
}

// PrintKeys exercises the output sink.
func PrintKeys(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `formatted output of loop-derived values`
	}
}

// SendKeys exercises the channel-send sink: receivers observe arrival order.
func SendKeys(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k // want `loop-derived value sent on a channel`
	}
}

// Annotated shows a reviewed escape: the standalone directive covers the
// line below it.
func Annotated(m map[string]bool) []string {
	var out []string
	for k := range m {
		//lint:allow maporder fixture consumer deduplicates and re-sorts
		out = append(out, k)
	}
	return out
}
