package lint_test

import (
	"testing"

	"logmob/internal/lint"
	"logmob/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, lint.Determinism,
		"internal/lint/testdata/src/determinism/netsim",
		"internal/lint/testdata/src/determinism/ledger",
		"internal/lint/testdata/src/determinism/command")
}
