// Command command is a determinism-analyzer fixture for scope: a main
// package owns its clock, so nothing here earns a diagnostic.
package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now())
}
