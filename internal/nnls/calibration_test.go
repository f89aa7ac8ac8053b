package nnls_test

import (
	"context"
	"math"
	"testing"

	"dvfsroofline/internal/core"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/linalg"
	"dvfsroofline/internal/nnls"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// eq9Problem builds the Eq. 9 design matrix and right-hand side of the
// samples idx selects, in that order, the way core's fit does.
func eq9Problem(samples []core.Sample, idx []int) (*linalg.Matrix, []units.Joule) {
	a := linalg.NewMatrix(len(idx), 9)
	b := make([]units.Joule, len(idx))
	for r, i := range idx {
		s := samples[i]
		vp := float64(s.Setting.Core.Volts())
		vm := float64(s.Setting.Mem.Volts())
		vp2, vm2 := vp*vp, vm*vm
		p, row := s.Profile, a.Row(r)
		const scale = 1e-12
		row[0] = p.SP * vp2 * scale
		row[1] = (p.DPFMA + p.DPAdd + p.DPMul) * vp2 * scale
		row[2] = p.Int * vp2 * scale
		row[3] = (p.SharedWords + p.L1Words) * vp2 * scale
		row[4] = p.L2Words * vp2 * scale
		row[5] = p.DRAMWords * vm2 * scale
		row[6] = vp * float64(s.Time)
		row[7] = vm * float64(s.Time)
		row[8] = float64(s.Time)
		b[r] = s.Energy
	}
	return a, b
}

// TestCalibrationFoldsMatchReference solves every NNLS problem a
// calibration poses, at seeds 7, 11 and 42: the holdout's training set
// (the T-type settings) and the 16 leave-one-setting-out folds over the
// 1856 samples. Solve must give referenceSolve's bits on each. The
// holdout fit must also give the calibration's fitted constants, which
// shows these are the problems core solves.
func TestCalibrationFoldsMatchReference(t *testing.T) {
	for _, seed := range []int64{7, 11, 42} {
		cal, err := experiments.Calibrate(context.Background(), tegra.NewDevice(), experiments.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if cal.Coverage.ScreenedOutliers != 0 {
			t.Fatalf("seed %d: %d outliers screened; the fitted model is then not the holdout fit", seed, cal.Coverage.ScreenedOutliers)
		}
		per := len(cal.Samples) / 16
		sets := [][]int{nil} // the holdout's training set, then the folds
		for i, train := range cal.TrainMask {
			if train {
				sets[0] = append(sets[0], i)
			}
		}
		for g := 0; g < 16; g++ {
			var fold []int
			for i := range cal.Samples {
				if i/per != g {
					fold = append(fold, i)
				}
			}
			sets = append(sets, fold)
		}
		for k, idx := range sets {
			a, b := eq9Problem(cal.Samples, idx)
			want, wantErr := nnls.ReferenceSolve(a, b, 0)
			got, gotErr := nnls.Solve(a, b, 0)
			if d := nnls.Mismatch(got, gotErr, want, wantErr); d != "" {
				t.Errorf("seed %d, set %d (%d rows): %s", seed, k, len(idx), d)
			}
			if k == 0 && gotErr == nil {
				m := cal.Model
				fitted := []float64{float64(m.SPpJ), float64(m.DPpJ), float64(m.IntpJ), float64(m.SMpJ),
					float64(m.L2pJ), float64(m.DRAMpJ), float64(m.C1Proc), float64(m.C1Mem), float64(m.PMisc)}
				for j, x := range got.X {
					if math.Float64bits(x) != math.Float64bits(fitted[j]) {
						t.Errorf("seed %d: holdout fit X[%d] = %v, calibration constant %v", seed, j, x, fitted[j])
					}
				}
			}
		}
	}
}
