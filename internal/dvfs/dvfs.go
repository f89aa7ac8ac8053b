// Package dvfs models the dynamic voltage and frequency scaling (DVFS)
// operating points of the NVIDIA Tegra K1 SoC used in the paper: 15
// frequency steps for the GPU core and 7 for the external memory
// controller (EMC). As on the real board, selecting a frequency
// automatically selects a predetermined voltage (paper, footnote 1).
//
// The package also records the paper's experiment configurations: the 16
// training/validation calibration settings of Table I and the S1–S8
// validation settings of Table IV.
package dvfs

import (
	"fmt"

	"dvfsroofline/internal/units"
)

// OperatingPoint is one frequency/voltage pair of a domain's DVFS table.
type OperatingPoint struct {
	FreqMHz   units.MegaHertz // clock frequency
	VoltageMV units.MilliVolt // predetermined supply voltage
}

// FreqHz returns the frequency in hertz.
func (p OperatingPoint) FreqHz() units.Hertz { return p.FreqMHz.Hertz() }

// Volts returns the supply voltage in volts.
func (p OperatingPoint) Volts() units.Volt { return p.VoltageMV.Volts() }

func (p OperatingPoint) String() string {
	return fmt.Sprintf("%.0fMHz@%.0fmV", float64(p.FreqMHz), float64(p.VoltageMV))
}

// CoreTable lists the 15 GPU core operating points of the Tegra K1,
// lowest frequency first. Voltages for the points the paper quotes
// (852/1030, 756/950, 648/890, 540/840, 396/770, 180/760, 72/760 mV)
// match Table I/IV exactly; the remaining steps follow the board's
// monotone voltage ladder.
var CoreTable = []OperatingPoint{
	{72, 760}, {108, 760}, {180, 760}, {252, 760}, {324, 770},
	{396, 770}, {468, 800}, {540, 840}, {612, 860}, {648, 890},
	{684, 900}, {708, 920}, {756, 950}, {804, 980}, {852, 1030},
}

// MemTable lists the 7 EMC operating points, lowest first. The paper
// quotes 924/1010, 528/880, 204/800 and 68/800 mV; the rest interpolate
// the ladder.
var MemTable = []OperatingPoint{
	{68, 800}, {204, 800}, {300, 820}, {396, 850},
	{528, 880}, {792, 960}, {924, 1010},
}

// Setting is one system configuration: a core point and a memory point.
// The paper's grid has len(CoreTable) x len(MemTable) = 105 permutations.
type Setting struct {
	Core OperatingPoint
	Mem  OperatingPoint
}

func (s Setting) String() string {
	return fmt.Sprintf("core=%v mem=%v", s.Core, s.Mem)
}

// CorePoint returns the core operating point with the given frequency.
func CorePoint(freqMHz units.MegaHertz) (OperatingPoint, error) {
	return lookup(CoreTable, freqMHz, "core")
}

// MemPoint returns the memory operating point with the given frequency.
func MemPoint(freqMHz units.MegaHertz) (OperatingPoint, error) {
	return lookup(MemTable, freqMHz, "mem")
}

func lookup(table []OperatingPoint, freqMHz units.MegaHertz, what string) (OperatingPoint, error) {
	for _, p := range table {
		if p.FreqMHz == freqMHz {
			return p, nil
		}
	}
	return OperatingPoint{}, fmt.Errorf("dvfs: no %s operating point at %g MHz", what, float64(freqMHz))
}

// MustSetting builds a Setting from core and memory frequencies that must
// exist in the tables; it panics otherwise. Use it for the fixed
// experiment configurations compiled into this repository.
func MustSetting(coreMHz, memMHz units.MegaHertz) Setting {
	c, err := CorePoint(coreMHz)
	if err != nil {
		panic(err)
	}
	m, err := MemPoint(memMHz)
	if err != nil {
		panic(err)
	}
	return Setting{Core: c, Mem: m}
}

// Grid returns every core x memory setting combination (the paper's 105
// permutations), ordered core-major, ascending frequency.
func Grid() []Setting {
	out := make([]Setting, 0, len(CoreTable)*len(MemTable))
	for _, c := range CoreTable {
		for _, m := range MemTable {
			out = append(out, Setting{Core: c, Mem: m})
		}
	}
	return out
}

// CalibrationSetting is a Table I row: a Setting tagged as training ("T")
// or validation ("V") for the 2-fold holdout.
type CalibrationSetting struct {
	Type    string // "T" or "V"
	Setting Setting
}

// CalibrationSettings returns the paper's 16 calibration settings in the
// order of Table I: 8 training rows then 8 validation rows.
func CalibrationSettings() []CalibrationSetting {
	rows := []struct {
		typ       string
		core, mem units.MegaHertz
	}{
		{"T", 852, 924}, {"T", 396, 924}, {"T", 852, 528}, {"T", 648, 528},
		{"T", 396, 528}, {"T", 852, 204}, {"T", 648, 204}, {"T", 396, 204},
		{"V", 756, 924}, {"V", 180, 528}, {"V", 540, 528}, {"V", 540, 204},
		{"V", 756, 204}, {"V", 72, 68}, {"V", 756, 68}, {"V", 180, 924},
	}
	out := make([]CalibrationSetting, len(rows))
	for i, r := range rows {
		out[i] = CalibrationSetting{Type: r.typ, Setting: MustSetting(r.core, r.mem)}
	}
	return out
}

// ValidationSettings returns the paper's Table IV system settings S1–S8
// used for the FMM validation study.
func ValidationSettings() []Setting {
	rows := [][2]units.MegaHertz{
		{852, 924}, {756, 924}, {180, 924}, {852, 792},
		{612, 528}, {540, 528}, {612, 396}, {852, 204},
	}
	out := make([]Setting, len(rows))
	for i, r := range rows {
		out[i] = MustSetting(r[0], r[1])
	}
	return out
}

// ValidationID returns the paper's label ("S1".."S8") for index i of
// ValidationSettings.
func ValidationID(i int) string { return fmt.Sprintf("S%d", i+1) }

// MaxSetting returns the highest-frequency setting in both domains
// (852 MHz core, 924 MHz memory) — the paper's Figure 6 configuration.
func MaxSetting() Setting {
	return Setting{Core: CoreTable[len(CoreTable)-1], Mem: MemTable[len(MemTable)-1]}
}
