package fmm

import (
	"strings"
	"testing"
)

func TestPhaseStringsAndOrder(t *testing.T) {
	want := map[Phase]string{
		PhaseUp: "UP", PhaseU: "U", PhaseV: "V",
		PhaseW: "W", PhaseX: "X", PhaseDown: "DOWN",
	}
	for ph, s := range want {
		if ph.String() != s {
			t.Errorf("phase %d prints %q, want %q", int(ph), ph.String(), s)
		}
	}
	if !strings.HasPrefix(Phase(99).String(), "Phase(") {
		t.Error("unknown phase string wrong")
	}
	order := Phases()
	if len(order) != int(NumPhases) {
		t.Fatalf("Phases() returned %d phases, want %d", len(order), NumPhases)
	}
	// The downward pass must come after V and X (whose results it
	// consumes) and before the leaf phases that read local expansions.
	pos := map[Phase]int{}
	for i, ph := range order {
		pos[ph] = i
	}
	if !(pos[PhaseUp] < pos[PhaseV] && pos[PhaseV] < pos[PhaseDown] && pos[PhaseX] < pos[PhaseDown]) {
		t.Errorf("phase order %v violates data dependencies", order)
	}
}

func TestPhaseOccupanciesMatchPaperRegime(t *testing.T) {
	// §IV-C: the FMM delivers less than a quarter of peak IPC; the
	// U-list phase is the extreme case.
	for ph := Phase(0); ph < NumPhases; ph++ {
		occ := ph.Occupancy()
		if occ <= 0 || occ > 1 {
			t.Errorf("%v occupancy %v out of range", ph, occ)
		}
		if occ > 0.5 {
			t.Errorf("%v occupancy %v too high for the paper's underutilized FMM", ph, occ)
		}
	}
	if PhaseU.Occupancy() != 0.25 {
		t.Errorf("U-phase occupancy %v, paper says ~1/4 of peak", PhaseU.Occupancy())
	}
}

func TestCountPhasesUMatchesListStructure(t *testing.T) {
	// The U-phase kernel-eval tally must equal the exact pairwise count
	// implied by the interaction lists.
	tree := buildListedTree(t, Plummer, 2000, 30, 5)
	ts := countPhases(tree, SurfaceCount(4), false, 4)
	var want int64
	for _, li := range tree.Leaves() {
		n := &tree.Nodes[li]
		for _, u := range n.U {
			want += int64(n.NumSources()) * int64(tree.Nodes[u].NumSources())
		}
	}
	if ts[PhaseU].kernelEvals != want {
		t.Errorf("U-phase evals = %d, lists imply %d", ts[PhaseU].kernelEvals, want)
	}
}

func TestCountPhasesP2ML2PMatchPointCounts(t *testing.T) {
	tree := buildListedTree(t, Uniform, 3000, 50, 6)
	ns := int64(SurfaceCount(4))
	ts := countPhases(tree, int(ns), false, 4)
	var pts int64
	for _, li := range tree.Leaves() {
		pts += int64(tree.Nodes[li].NumSources())
	}
	if ts[PhaseUp].kernelEvals != pts*ns {
		t.Errorf("P2M evals = %d, want %d", ts[PhaseUp].kernelEvals, pts*ns)
	}
	if ts[PhaseDown].kernelEvals != pts*ns {
		t.Errorf("L2P evals = %d, want %d", ts[PhaseDown].kernelEvals, pts*ns)
	}
}

func TestCountPhasesVDenseVsFFT(t *testing.T) {
	// Dense and FFT counting must agree on the number of V pairs, even
	// though they charge different work per pair.
	tree := buildListedTree(t, Uniform, 4096, 60, 7)
	ns := int64(SurfaceCount(4))
	dense := countPhases(tree, int(ns), false, 4)
	fftTally := countPhases(tree, int(ns), true, 4)

	var pairs int64
	for i := range tree.Nodes {
		pairs += int64(len(tree.Nodes[i].V))
	}
	if dense[PhaseV].matvecOps != pairs*ns*ns {
		t.Errorf("dense V matvec ops = %d, want %d", dense[PhaseV].matvecOps, pairs*ns*ns)
	}
	nfft := int64(8 * 8 * 8)
	if fftTally[PhaseV].fftPoints != pairs*nfft {
		t.Errorf("FFT V points = %d, want %d", fftTally[PhaseV].fftPoints, pairs*nfft)
	}
	if fftTally[PhaseV].fftFlops <= 0 {
		t.Error("FFT transforms not counted")
	}
}

func TestProfileConversionPositive(t *testing.T) {
	tl := tally{kernelEvals: 1000, matvecOps: 500, fftFlops: 200,
		fftPoints: 64, tileWords: 300, gridReads: 400, smWords: 100,
		streamWords: 50, operandWords: 25}
	p := tl.Profile()
	if p.Instructions() <= 0 || p.Accesses() <= 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	// Traffic conservation: every tallied word lands in exactly one
	// level, so totals must match the closed form.
	wantWords := float64(1000*smWordsPerEval+500) + 100 + 300 + 400 + 50 + 25
	if p.Accesses() != wantWords {
		t.Errorf("accesses = %v, want %v", p.Accesses(), wantWords)
	}
}

func TestPhaseProfilesTotal(t *testing.T) {
	var pp PhaseProfiles
	pp[PhaseU].Int = 5
	pp[PhaseV].Int = 7
	pp[PhaseUp].DRAMWords = 3
	tot := pp.Total()
	if tot.Int != 12 || tot.DRAMWords != 3 {
		t.Errorf("total wrong: %+v", tot)
	}
}
