package core

import (
	"math"
	"testing"
	"testing/quick"

	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

func tk1Machine(s dvfs.Setting) Machine {
	return MachineFor(tegra.DPPerCycle, tegra.DRAMWordsPerCycle, s)
}

func TestTimeBalance(t *testing.T) {
	s := dvfs.MaxSetting()
	m := tk1Machine(s)
	// B_τ = peak DP / peak DRAM words: (8*852e6) / (4*924e6).
	want := (8.0 * 852e6) / (4.0 * 924e6)
	if math.Abs(float64(m.TimeBalance())-want) > 1e-12 {
		t.Errorf("TimeBalance = %v, want %v", m.TimeBalance(), want)
	}
}

func TestEnergyBalanceMatchesEpsRatio(t *testing.T) {
	m := knownModel()
	s := dvfs.MaxSetting()
	e := m.EpsAt(s)
	if got := m.EnergyBalance(ClassDP, s); math.Abs(float64(got)-float64(e.DRAM/e.DP)) > 1e-12 {
		t.Errorf("EnergyBalance = %v, want %v", got, e.DRAM/e.DP)
	}
	if got := m.EnergyBalance(ClassSP, s); math.Abs(float64(got)-float64(e.DRAM/e.SP)) > 1e-12 {
		t.Errorf("SP EnergyBalance = %v, want %v", got, e.DRAM/e.SP)
	}
}

func TestRooflineShape(t *testing.T) {
	// The classic roofline: performance rises linearly with intensity in
	// the memory-bound region and saturates at the compute peak.
	m := knownModel()
	s := dvfs.MaxSetting()
	mach := tk1Machine(s)
	bt := mach.TimeBalance()

	low := m.RooflineAt(ClassDP, mach, s, bt/100)
	mid := m.RooflineAt(ClassDP, mach, s, bt)
	high := m.RooflineAt(ClassDP, mach, s, bt*100)

	// Memory-bound: perf = I * BW.
	if rel := math.Abs(float64(low.OpsPerSec)-float64(low.Intensity)*float64(mach.WordsPerSec)) / float64(low.OpsPerSec); rel > 1e-12 {
		t.Errorf("memory-bound perf %v != I*BW", low.OpsPerSec)
	}
	// Compute-bound: perf = peak.
	if rel := math.Abs(float64(high.OpsPerSec-mach.OpsPerSec)) / float64(mach.OpsPerSec); rel > 1e-12 {
		t.Errorf("compute-bound perf %v != peak %v", high.OpsPerSec, mach.OpsPerSec)
	}
	// The ridge point attains peak too.
	if rel := math.Abs(float64(mid.OpsPerSec-mach.OpsPerSec)) / float64(mach.OpsPerSec); rel > 1e-9 {
		t.Errorf("ridge perf %v != peak", mid.OpsPerSec)
	}
}

func TestRooflineMonotonicity(t *testing.T) {
	// Property: ops/J and ops/s are non-decreasing in intensity, power is
	// positive and bounded by a sane envelope.
	m := knownModel()
	s := dvfs.MustSetting(540, 528)
	mach := tk1Machine(s)
	f := func(a, b uint16) bool {
		i1 := units.OpsPerWord(0.01 * (1 + float64(a%1000)))
		i2 := i1 * units.OpsPerWord(1+float64(b%100)/10)
		p1 := m.RooflineAt(ClassDP, mach, s, i1)
		p2 := m.RooflineAt(ClassDP, mach, s, i2)
		return p2.OpsPerSec >= p1.OpsPerSec-1e-9 &&
			p2.OpsPerJoule >= p1.OpsPerJoule-1e-9 &&
			p1.Power > 0 && p1.Power < 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRooflineEnergyDecomposition(t *testing.T) {
	// At very high intensity the energy per op approaches
	// ε_op + π0/peak; at very low intensity the DRAM term dominates.
	m := knownModel()
	s := dvfs.MaxSetting()
	mach := tk1Machine(s)
	e := m.EpsAt(s)
	const pJ = 1e-12

	high := m.RooflineAt(ClassDP, mach, s, 1e9)
	want := float64(e.DP)*pJ + float64(e.ConstPower)/float64(mach.OpsPerSec)
	if rel := math.Abs(float64(high.EnergyPerOp)-want) / want; rel > 1e-3 {
		t.Errorf("high-intensity energy/op = %v, want %v", high.EnergyPerOp, want)
	}

	low := m.RooflineAt(ClassDP, mach, s, 1e-6)
	// Dominated by ε_mem/I.
	if float64(low.EnergyPerOp) < float64(e.DRAM)*pJ/1e-6*0.9 {
		t.Errorf("low-intensity energy/op %v should be DRAM-dominated", low.EnergyPerOp)
	}
}

func TestEffectiveEnergyBalanceExceedsPureBalance(t *testing.T) {
	// Constant power adds a time-dependent term, so the intensity at
	// which op energy reaches half the total is strictly larger than the
	// dynamic-only balance ε_mem/ε_op.
	m := knownModel()
	s := dvfs.MaxSetting()

	// On the real TK1 the DP (and even SP) peaks are too low to amortize
	// constant power: π0/peak exceeds ε_op, so the effective balance is
	// +Inf — precisely the paper's §IV-C finding that constant power
	// dominates any DP application on this SoC.
	if eff := m.EffectiveEnergyBalance(ClassDP, tk1Machine(s), s); !math.IsInf(float64(eff), 1) {
		t.Errorf("TK1 DP effective balance = %v, want +Inf (idle power > ε_DP at peak)", eff)
	}

	// A hypothetical machine with a 1 Tops/s pipe amortizes π0 and has a
	// finite balance strictly above the dynamic-only one.
	mach := Machine{OpsPerSec: 1e12, WordsPerSec: 4 * 924e6}
	pure := m.EnergyBalance(ClassDP, s)
	eff := m.EffectiveEnergyBalance(ClassDP, mach, s)
	if math.IsInf(float64(eff), 1) || eff <= pure {
		t.Fatalf("effective balance %v should be finite and exceed pure balance %v", eff, pure)
	}
	// At the effective balance, non-op energy equals op energy, so the
	// total is twice the op energy (within bisection tolerance).
	pt := m.RooflineAt(ClassDP, mach, s, eff)
	opE := float64(m.epsOf(ClassDP, s)) * 1e-12
	if rel := math.Abs(float64(pt.EnergyPerOp)-2*opE) / (2 * opE); rel > 1e-6 {
		t.Errorf("at effective balance, energy/op = %v, want %v", pt.EnergyPerOp, 2*opE)
	}
}

func TestRooflinePanics(t *testing.T) {
	m := knownModel()
	s := dvfs.MaxSetting()
	for name, fn := range map[string]func(){
		"bad machine":   func() { m.RooflineAt(ClassDP, Machine{}, s, 1) },
		"bad intensity": func() { m.RooflineAt(ClassDP, tk1Machine(s), s, 0) },
		"bad class":     func() { m.epsOf(OpClass(9), s) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOpClassStrings(t *testing.T) {
	if ClassSP.String() != "SP" || ClassDP.String() != "DP" || ClassInt.String() != "Int" {
		t.Error("OpClass strings wrong")
	}
	if OpClass(7).String() != "OpClass(7)" {
		t.Error("unknown OpClass string wrong")
	}
}

func TestRooflineIdentifiesFMMRegime(t *testing.T) {
	// The FMM's overall DP intensity on the TK1 sits near or below the
	// machine's effective energy balance — which is why constant power
	// dominates its energy (§IV-C) and race-to-halt is near-optimal.
	m := knownModel()
	s := dvfs.MaxSetting()
	mach := tk1Machine(s)
	// A representative FMM profile shape (from Figure 4): per DRAM word,
	// roughly 13 DP ops at Q=64.
	fmmIntensity := units.OpsPerWord(13)
	eff := m.EffectiveEnergyBalance(ClassDP, mach, s)
	pt := m.RooflineAt(ClassDP, mach, s, fmmIntensity)
	constShare := float64(m.ConstPower(s)) * float64(pt.TimePerOp) / float64(pt.EnergyPerOp)
	if eff < fmmIntensity && constShare > 0.5 {
		t.Errorf("inconsistent regime: intensity %v above balance %v yet constant-dominated (%.2f)",
			fmmIntensity, eff, constShare)
	}
	t.Logf("TK1 DP: time balance %.1f, energy balance %.1f, effective balance %.1f; FMM at ~%.0f ops/word -> constant share %.2f",
		mach.TimeBalance(), m.EnergyBalance(ClassDP, s), eff, fmmIntensity, constShare)
}

func TestRooflineSamplesCurve(t *testing.T) {
	m := knownModel()
	s := dvfs.MaxSetting()
	mach := tk1Machine(s)
	intensities := []units.OpsPerWord{0.5, 1, 2, 4, 8}
	pts := m.Roofline(ClassDP, mach, s, intensities)
	if len(pts) != len(intensities) {
		t.Fatalf("got %d points, want %d", len(pts), len(intensities))
	}
	for i, p := range pts {
		if p.Intensity != intensities[i] {
			t.Errorf("point %d at intensity %v, want %v", i, p.Intensity, intensities[i])
		}
		single := m.RooflineAt(ClassDP, mach, s, intensities[i])
		if p != single {
			t.Errorf("point %d differs from RooflineAt", i)
		}
	}
}
