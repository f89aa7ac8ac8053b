package dvfs

import (
	"fmt"
	"strings"
	"testing"

	"dvfsroofline/internal/units"
)

// validateTable checks a DVFS table's invariants: strictly increasing
// frequencies, non-decreasing voltages, positive operating points.
func validateTable(table []OperatingPoint) error {
	if len(table) == 0 {
		return fmt.Errorf("dvfs: empty operating-point table")
	}
	for i := 1; i < len(table); i++ {
		if table[i].FreqMHz <= table[i-1].FreqMHz {
			return fmt.Errorf("dvfs: frequencies not strictly increasing at %g MHz", float64(table[i].FreqMHz))
		}
		if table[i].VoltageMV < table[i-1].VoltageMV {
			return fmt.Errorf("dvfs: voltage not monotone at %g MHz", float64(table[i].FreqMHz))
		}
	}
	for _, p := range table {
		if p.FreqMHz <= 0 || p.VoltageMV <= 0 {
			return fmt.Errorf("dvfs: non-positive operating point %v", p)
		}
	}
	return nil
}

func TestTablesValid(t *testing.T) {
	if err := validateTable(CoreTable); err != nil {
		t.Errorf("core table invalid: %v", err)
	}
	if err := validateTable(MemTable); err != nil {
		t.Errorf("mem table invalid: %v", err)
	}
}

func TestTableSizesMatchPaper(t *testing.T) {
	// Section II-C: "105 possible permutations (15 for the processor and
	// 7 for the memory)".
	if len(CoreTable) != 15 {
		t.Errorf("core table has %d points, paper says 15", len(CoreTable))
	}
	if len(MemTable) != 7 {
		t.Errorf("mem table has %d points, paper says 7", len(MemTable))
	}
	if g := Grid(); len(g) != 105 {
		t.Errorf("grid has %d settings, paper says 105", len(g))
	}
}

func TestPaperQuotedVoltages(t *testing.T) {
	// Every (freq, voltage) pair printed in Table I and Table IV must be
	// reproduced exactly.
	core := map[units.MegaHertz]units.MilliVolt{
		852: 1030, 756: 950, 648: 890, 540: 840,
		396: 770, 180: 760, 72: 760,
	}
	for f, v := range core {
		p, err := CorePoint(f)
		if err != nil {
			t.Fatalf("core %g MHz: %v", f, err)
		}
		if p.VoltageMV != v {
			t.Errorf("core %g MHz: voltage %g mV, paper says %g", f, p.VoltageMV, v)
		}
	}
	mem := map[units.MegaHertz]units.MilliVolt{924: 1010, 528: 880, 204: 800, 68: 800}
	for f, v := range mem {
		p, err := MemPoint(f)
		if err != nil {
			t.Fatalf("mem %g MHz: %v", f, err)
		}
		if p.VoltageMV != v {
			t.Errorf("mem %g MHz: voltage %g mV, paper says %g", f, p.VoltageMV, v)
		}
	}
}

func TestCalibrationSettings(t *testing.T) {
	cs := CalibrationSettings()
	if len(cs) != 16 {
		t.Fatalf("got %d calibration settings, want 16", len(cs))
	}
	var nT, nV int
	for _, c := range cs {
		switch c.Type {
		case "T":
			nT++
		case "V":
			nV++
		default:
			t.Errorf("unknown setting type %q", c.Type)
		}
	}
	if nT != 8 || nV != 8 {
		t.Errorf("got %d T and %d V settings, want 8 and 8", nT, nV)
	}
	// Spot-check the first and last rows of Table I.
	if cs[0].Setting.Core.FreqMHz != 852 || cs[0].Setting.Mem.FreqMHz != 924 {
		t.Errorf("first row = %v, want 852/924", cs[0].Setting)
	}
	if cs[15].Setting.Core.FreqMHz != 180 || cs[15].Setting.Mem.FreqMHz != 924 {
		t.Errorf("last row = %v, want 180/924", cs[15].Setting)
	}
}

func TestValidationSettings(t *testing.T) {
	vs := ValidationSettings()
	if len(vs) != 8 {
		t.Fatalf("got %d validation settings, want 8", len(vs))
	}
	// Table IV: S1 = 852/924, S5 = 612/528, S8 = 852/204.
	if vs[0].Core.FreqMHz != 852 || vs[0].Mem.FreqMHz != 924 {
		t.Errorf("S1 = %v", vs[0])
	}
	if vs[4].Core.FreqMHz != 612 || vs[4].Mem.FreqMHz != 528 {
		t.Errorf("S5 = %v", vs[4])
	}
	if vs[7].Core.FreqMHz != 852 || vs[7].Mem.FreqMHz != 204 {
		t.Errorf("S8 = %v", vs[7])
	}
	if ValidationID(0) != "S1" || ValidationID(7) != "S8" {
		t.Error("ValidationID labels wrong")
	}
}

func TestLookupUnknownFrequency(t *testing.T) {
	if _, err := CorePoint(1000); err == nil {
		t.Error("expected error for unknown core frequency")
	}
	if _, err := MemPoint(1); err == nil {
		t.Error("expected error for unknown mem frequency")
	}
}

func TestMustSettingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid frequency")
		}
	}()
	MustSetting(999, 924)
}

func TestMaxSetting(t *testing.T) {
	s := MaxSetting()
	if s.Core.FreqMHz != 852 || s.Mem.FreqMHz != 924 {
		t.Errorf("MaxSetting = %v, want 852/924", s)
	}
}

func TestUnitConversions(t *testing.T) {
	p := OperatingPoint{FreqMHz: 852, VoltageMV: 1030}
	if p.FreqHz() != 852e6 {
		t.Errorf("FreqHz = %v", p.FreqHz())
	}
	if p.Volts() != 1.030 {
		t.Errorf("Volts = %v", p.Volts())
	}
}

func TestValidateRejectsBadTables(t *testing.T) {
	cases := map[string][]OperatingPoint{
		"empty":        {},
		"unsorted":     {{200, 800}, {100, 800}},
		"duplicate":    {{100, 800}, {100, 810}},
		"voltage drop": {{100, 900}, {200, 800}},
		"nonpositive":  {{0, 800}},
	}
	for name, table := range cases {
		if err := validateTable(table); err == nil {
			t.Errorf("%s: validateTable should fail", name)
		}
	}
}

func TestStrings(t *testing.T) {
	s := MustSetting(852, 924)
	str := s.String()
	for _, want := range []string{"852", "924", "1030", "1010"} {
		if !strings.Contains(str, want) {
			t.Errorf("Setting string %q missing %q", str, want)
		}
	}
}
