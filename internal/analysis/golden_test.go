package analysis_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvfsroofline/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite testdata/diagnostics.golden")

// TestDiagnosticsGolden pins every byte of every diagnostic the full
// suite reports over the testdata packages: rule, position, URL and the
// whole message, allowed findings included. The // want regexps in the
// per-analyzer tests match only part of a message, so a reworded
// diagnostic passes them; it fails here.
func TestDiagnosticsGolden(t *testing.T) {
	src := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	var got bytes.Buffer
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join(src, e.Name()), e.Name())
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.RunAll(pkg, analysis.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			rel, err := filepath.Rel(src, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			allowed := ""
			if d.Allowed {
				allowed = " (allowed)"
			}
			fmt.Fprintf(&got, "%s:%d:%d: %s%s: %s [%s]\n", filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Rule, allowed, d.Message, d.URL)
		}
	}
	path := filepath.Join("testdata", "diagnostics.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("diagnostics differ from %s (regenerate with -update only for an intended change):\n--- got\n%s", path, got.Bytes())
	}
}
