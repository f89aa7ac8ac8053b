package analysis_test

import (
	"testing"

	"dvfsroofline/internal/analysis"
	"dvfsroofline/internal/analysis/analysistest"
)

// Each analyzer runs over its firing testdata package(s) plus, where a
// rule is gated by package name, the want-free "ungated" package that
// proves the gate holds.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "determ", "experiments", "ungated")
}

func TestSeedflow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Seedflow, "seedpkg")
}

func TestCtxloop(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Ctxloop, "ctxpkg")
}

func TestErrwrap(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Errwrap, "errpkg")
}

func TestUnittypes(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Unittypes, "powermon", "ungated")
}

func TestAllowdecl(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Allowdecl, "allowpkg")
}

func TestLockguard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Lockguard, "lockpkg")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Lockorder, "lockorderpkg")
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Hotalloc, "hotallocpkg")
}

func TestGoleak(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Goleak, "goleakpkg")
}
