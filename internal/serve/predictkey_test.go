package serve

import (
	"fmt"
	"math"
	"testing"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// fmtPredictKey is the original fmt-based encoding predictKey replaced.
// predictKey feeds the consistent-hash ring: if one byte of the
// encoding moves, every request remaps to a different device and every
// warm sweep cache goes cold. The strconv rewrite must therefore be
// byte-identical, not just injective.
func fmtPredictKey(req PredictRequest) string {
	p := req.Profile
	s := fmt.Sprintf("p id=%s t=%g occ=%g", req.SettingID, req.TimeS, req.Occupancy)
	if req.Setting != nil {
		s += fmt.Sprintf(" core=%g mem=%g", req.Setting.CoreMHz, req.Setting.MemMHz)
	}
	s += fmt.Sprintf(" sp=%g fma=%g add=%g mul=%g int=%g sm=%g l1=%g l2=%g dram=%g",
		p.SP, p.DPFMA, p.DPAdd, p.DPMul, p.Int,
		p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords)
	return s
}

// keyVals cross every %g formatting regime: zero, negative zero,
// integers, shortest-repr fractions, the 1e-5/1e21 switchover to
// exponent notation, subnormals, huge magnitudes, and the non-finite
// values a hostile request body can smuggle in.
var keyVals = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1.5e6, 1234.5678,
	1e-4, 9.999e-5, 1e-5, 1e20, 1e21, 1e22, 5e-324,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	0.1, 1.0 / 3.0, 2.5e8,
}

// keyIDs are the grid names and setting IDs the key tests mix in.
var keyIDs = []string{"", "S1", "max", "weird id \x00\xff"}

func TestPredictKeyBytes(t *testing.T) {
	reqs := []PredictRequest{}
	for i, v := range keyVals {
		w := keyVals[(i+7)%len(keyVals)]
		reqs = append(reqs,
			PredictRequest{
				SettingID: keyIDs[i%len(keyIDs)],
				TimeS:     units.Second(v),
				Occupancy: units.Ratio(w),
				Profile: ProfileJSON{
					SP: units.Count(v), DPFMA: units.Count(w), DPAdd: units.Count(-v),
					DPMul: units.Count(v * 3), Int: units.Count(w / 7),
					SharedWords: units.Count(v), L1Words: units.Count(w),
					L2Words: units.Count(v + w), DRAMWords: units.Count(v - w),
				},
			},
			PredictRequest{
				Setting:   &SettingJSON{CoreMHz: units.MegaHertz(v), MemMHz: units.MegaHertz(w)},
				TimeS:     units.Second(w),
				Occupancy: units.Ratio(v),
				Profile:   ProfileJSON{SP: units.Count(w), DRAMWords: units.Count(v)},
			},
		)
	}
	for _, req := range reqs {
		got, want := predictKey(req), fmtPredictKey(req)
		if got != want {
			t.Errorf("predictKey diverged from the fmt encoding:\n got %q\nwant %q", got, want)
		}
	}
}

// The original fmt-based encodings of the sweep keys, kept as the
// oracle: workloadKey feeds the consistent-hash ring and autotuneKey
// names every cached sweep, so the append rewrites must match them byte
// for byte.
func fmtAutotuneKey(grid string, wl tegra.Workload, seed int64) string {
	return fmt.Sprintf("g=%s occ=%g seed=%d %s", grid, wl.Occupancy, seed, fmtProfileKey(wl.Profile))
}

func fmtWorkloadKey(grid string, wl tegra.Workload) string {
	return fmt.Sprintf("g=%s occ=%g %s", grid, wl.Occupancy, fmtProfileKey(wl.Profile))
}

func fmtProfileKey(p counters.Profile) string {
	return fmt.Sprintf("sp=%g fma=%g add=%g mul=%g int=%g sm=%g l1=%g l2=%g dram=%g",
		p.SP, p.DPFMA, p.DPAdd, p.DPMul, p.Int,
		p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords)
}

func TestSweepKeyBytes(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	for i, v := range keyVals {
		w := keyVals[(i+7)%len(keyVals)]
		wl := tegra.Workload{
			Occupancy: units.Ratio(v),
			Profile: counters.Profile{
				SP: v, DPFMA: w, DPAdd: -v, DPMul: v * 3, Int: w / 7,
				SharedWords: v, L1Words: w, L2Words: v + w, DRAMWords: v - w,
			},
		}
		grid := keyIDs[i%len(keyIDs)]
		if got, want := workloadKey(grid, wl), fmtWorkloadKey(grid, wl); got != want {
			t.Errorf("workloadKey diverged from the fmt encoding:\n got %q\nwant %q", got, want)
		}
		seed := seeds[i%len(seeds)]
		if got, want := autotuneKey(grid, wl, seed), fmtAutotuneKey(grid, wl, seed); got != want {
			t.Errorf("autotuneKey diverged from the fmt encoding:\n got %q\nwant %q", got, want)
		}
	}
}

func BenchmarkPredictKey(b *testing.B) {
	req := PredictRequest{
		SettingID: "S4",
		TimeS:     0.0625,
		Occupancy: 0.25,
		Profile: ProfileJSON{
			SP: 1.5e6, DPFMA: 2.5e8, DPAdd: 1e7, DPMul: 3.2e7, Int: 4.1e8,
			SharedWords: 9.6e7, L1Words: 1.1e8, L2Words: 5.5e7, DRAMWords: 1.9e7,
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if predictKey(req) == "" {
			b.Fatal("empty key")
		}
	}
}
