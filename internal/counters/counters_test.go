package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegistryMatchesTableIII(t *testing.T) {
	// Table III has 17 rows: 4 metrics and 13 events.
	if len(Registry) != 17 {
		t.Fatalf("registry has %d entries, Table III has 17", len(Registry))
	}
	var nE, nM int
	for _, d := range Registry {
		switch d.Kind {
		case Event:
			nE++
		case Metric:
			nM++
		default:
			t.Errorf("counter %q has unknown kind %c", d.Name, d.Kind)
		}
		if d.Description == "" {
			t.Errorf("counter %q has no description", d.Name)
		}
	}
	if nM != 4 || nE != 13 {
		t.Errorf("got %d metrics and %d events, want 4 and 13", nM, nE)
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Registry {
		if seen[d.Name] {
			t.Errorf("duplicate counter name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestLookup(t *testing.T) {
	d, ok := Lookup(FlopsDPFMA)
	if !ok || d.Kind != Metric {
		t.Errorf("Lookup(%q) = %+v, %v", FlopsDPFMA, d, ok)
	}
	if _, ok := Lookup("no_such_counter"); ok {
		t.Error("Lookup of unknown counter succeeded")
	}
}

func TestSetValidate(t *testing.T) {
	s := Set{FlopsDPFMA: 10}
	if err := s.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := (Set{"bogus": 1}).Validate(); err == nil {
		t.Error("unknown counter accepted")
	}
	if err := (Set{FlopsDPFMA: -1}).Validate(); err == nil {
		t.Error("negative counter accepted")
	}
	// With several bad counters the error must not depend on map order.
	bad := Set{FlopsDPFMA: -1, "bogus": 1, "bogus2": 2}
	const want = `counters: unknown counter "bogus"`
	for i := 0; i < 200; i++ {
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}

func TestSetMergeAndNames(t *testing.T) {
	a := Set{FlopsDPFMA: 1, InstInteger: 2}
	b := Set{FlopsDPFMA: 3, FlopsDPAdd: 4}
	a.Merge(b)
	if a[FlopsDPFMA] != 4 || a[FlopsDPAdd] != 4 || a[InstInteger] != 2 {
		t.Errorf("merge wrong: %v", a)
	}
	names := a.Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names() not sorted")
		}
	}
}

func TestDeriveL2Subtraction(t *testing.T) {
	// The paper's example: L2-served reads = total L2 queries - DRAM reads.
	s := Set{
		L2Subp0TotalReadQueries: 1000, // 1000*4*32 = 128000 bytes total
		FBSubp0ReadSectors:      500,  // 500*32*2 = 32000 bytes from DRAM
		FBSubp1ReadSectors:      500,
	}
	p, err := Derive(s)
	if err != nil {
		t.Fatal(err)
	}
	wantL2 := (128000.0 - 32000.0) / WordBytes
	if p.L2Words != wantL2 {
		t.Errorf("L2Words = %v, want %v", p.L2Words, wantL2)
	}
	if p.DRAMWords != 32000.0/WordBytes {
		t.Errorf("DRAMWords = %v, want %v", p.DRAMWords, 32000.0/WordBytes)
	}
}

func TestDeriveInconsistent(t *testing.T) {
	// DRAM bytes exceeding L2 queries is physically impossible.
	s := Set{
		L2Subp0TotalReadQueries: 1,
		FBSubp0ReadSectors:      1000,
		FBSubp1ReadSectors:      1000,
	}
	if _, err := Derive(s); err == nil {
		t.Error("expected inconsistency error")
	}
}

func TestEmitDeriveRoundTrip(t *testing.T) {
	// Property: Derive(Emit(p)) == p for non-negative profiles.
	f := func(a, b, c, d, e, f1, g, h, i uint32) bool {
		p := Profile{
			DPFMA: float64(a % 1e6), DPAdd: float64(b % 1e6), DPMul: float64(c % 1e6),
			Int: float64(d % 1e6), SP: 0,
			SharedWords: float64(e%1e6) * 32, L1Words: float64(f1%1e6) * 32,
			L2Words: float64(g%1e6) * 32, DRAMWords: float64(h%1e6) * 16,
		}
		_ = i
		q, err := Derive(Emit(p))
		if err != nil {
			return false
		}
		const tol = 1e-9
		return math.Abs(q.DPFMA-p.DPFMA) < tol &&
			math.Abs(q.Int-p.Int) < tol &&
			math.Abs(q.SharedWords-p.SharedWords) < tol &&
			math.Abs(q.L1Words-p.L1Words) < tol &&
			math.Abs(q.L2Words-p.L2Words) < tol &&
			math.Abs(q.DRAMWords-p.DRAMWords) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProfileArithmetic(t *testing.T) {
	p := Profile{DPFMA: 1, DPAdd: 2, DPMul: 3, Int: 4, SharedWords: 5, L1Words: 6, L2Words: 7, DRAMWords: 8}
	q := p.Add(p)
	if q.DPFMA != 2 || q.DRAMWords != 16 {
		t.Errorf("Add wrong: %+v", q)
	}
	r := p.Scale(10)
	if r.Int != 40 || r.SharedWords != 50 {
		t.Errorf("Scale wrong: %+v", r)
	}
}

func TestProfileDerivedQuantities(t *testing.T) {
	p := Profile{DPFMA: 10, DPAdd: 5, DPMul: 5, Int: 30, SharedWords: 50, L1Words: 30, L2Words: 10, DRAMWords: 10}
	if got := p.Instructions(); got != 50 {
		t.Errorf("Instructions = %v, want 50", got)
	}
	if got := p.DPFlops(); got != 30 { // 2*10 + 5 + 5
		t.Errorf("DPFlops = %v, want 30", got)
	}
	if got := p.Accesses(); got != 100 {
		t.Errorf("Accesses = %v, want 100", got)
	}
	if got := p.IntegerFraction(); got != 0.6 {
		t.Errorf("IntegerFraction = %v, want 0.6", got)
	}
	if got := p.DRAMFraction(); got != 0.1 {
		t.Errorf("DRAMFraction = %v, want 0.1", got)
	}
	var zero Profile
	if zero.IntegerFraction() != 0 || zero.DRAMFraction() != 0 {
		t.Error("zero profile fractions should be 0")
	}
}
