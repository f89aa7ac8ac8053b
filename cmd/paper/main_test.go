package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_small.golden")

// The golden pins every number the runner prints — Table I and the CV
// statistics, Table II, Table IV and Figure 4, the phase attribution,
// Figures 5–7 and the rooflines — so a change anywhere below it that
// shifts a reproduced result fails here.
func TestPaperGolden(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-small", "-workers", "2"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "paper_small.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("stdout differs from %s (regenerate with -update only for an intended change):\n--- got\n%s", path, stdout.Bytes())
	}
}

func TestPaperRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-class", "DP"},
		{"-attribute"},
	} {
		var stderr bytes.Buffer
		if err := run(args, io.Discard, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if !bytes.Contains(stderr.Bytes(), []byte("Usage")) {
			t.Errorf("run(%q) printed no usage:\n%s", args, stderr.Bytes())
		}
	}
}
