package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadDirHonorsBuildConstraints loads a package that declares one
// variable per architecture, as a package with an assembly fast path
// does. Loading every file would redeclare it.
func TestLoadDirHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"p.go":       "package p\n\nvar _ = fast\n",
		"p_amd64.go": "package p\n\nvar fast = true\n",
		"p_arm64.go": "package p\n\nvar fast = true\n",
		"p_other.go": "//go:build !amd64 && !arm64\n\npackage p\n\nvar fast = false\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := NewLoader().LoadDir(dir, "example.com/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want p.go and one architecture's file", len(pkg.Files))
	}
}
