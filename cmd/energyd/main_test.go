package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/export"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
)

// TestCachedSamplesMatchFixture pins testdata/samples.csv — the CSV the
// CI smoke test boots energyd from — to serve.FixtureSamples byte for
// byte, so the checked-in artifact cannot drift from the code that
// defines it.
func TestCachedSamplesMatchFixture(t *testing.T) {
	var want bytes.Buffer
	if err := export.WriteSamples(&want, serve.FixtureSamples()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("testdata", "samples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("testdata/samples.csv does not match serve.FixtureSamples(); regenerate it with export.WriteSamples")
	}
}

// TestCachedSamplesLoad exercises the exact -cache startup path.
func TestCachedSamplesLoad(t *testing.T) {
	cal, err := cli.LoadCalibration(filepath.Join("testdata", "samples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Samples) != 128 {
		t.Fatalf("loaded %d samples, want 128", len(cal.Samples))
	}
	if m := cal.KFold.Percent().Mean; m > 1e-6 {
		t.Errorf("noiseless cached calibration CV mean %g%%, want ~0", m)
	}
}

// TestFleetConfigBoots exercises the exact -fleet startup path against
// the checked-in testdata/fleet.json the CI smoke test uses: the config
// must parse, build a 3-device registry, and calibrate every device.
func TestFleetConfigBoots(t *testing.T) {
	fc, err := fleet.LoadConfig(filepath.Join("testdata", "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := fleet.Build(fc, experiments.Config{Seed: fc.Seed}, cli.LoadCalibration, fleet.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Nodes()) != 3 {
		t.Fatalf("testdata/fleet.json built %d devices, want 3", len(reg.Nodes()))
	}
	seen := map[int64]bool{}
	for _, n := range reg.Nodes() {
		if len(n.Cal().Samples) == 0 {
			t.Errorf("device %q has no calibration samples", n.ID)
		}
		if m := n.Cal().KFold.Percent().Mean; m > 1e-6 {
			t.Errorf("device %q synthetic calibration CV mean %g%%, want ~0", n.ID, m)
		}
		if seen[n.Cfg.Seed] {
			t.Errorf("device %q shares its derived seed %d with another device", n.ID, n.Cfg.Seed)
		}
		seen[n.Cfg.Seed] = true
	}
	if n, ok := reg.Get("tk1-lowpower-sku"); !ok || len(n.Grids["full"]) >= len(dvfs.Grid()) {
		t.Error("tk1-lowpower-sku's DVFS bounds did not trim its full grid")
	}
}
