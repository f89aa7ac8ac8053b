package fmm

import (
	"fmt"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/fft"
)

// Phase enumerates the six computation phases of the FMM evaluation
// (paper §III-B): one per interaction list plus the upward and downward
// tree passes.
type Phase int

const (
	PhaseUp Phase = iota
	PhaseU
	PhaseV
	PhaseW
	PhaseX
	PhaseDown
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseUp:
		return "UP"
	case PhaseU:
		return "U"
	case PhaseV:
		return "V"
	case PhaseW:
		return "W"
	case PhaseX:
		return "X"
	case PhaseDown:
		return "DOWN"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases returns all phases in execution order.
func Phases() []Phase {
	return []Phase{PhaseUp, PhaseV, PhaseX, PhaseDown, PhaseW, PhaseU}
}

// Occupancy returns the issue efficiency the phase's kernels achieve on
// the simulated device. The paper measures its FMM at under a quarter of
// peak IPC (§IV-C); direct-interaction phases are latency-bound on
// rsqrt/divide, translation phases slightly better.
func (p Phase) Occupancy() float64 {
	switch p {
	case PhaseU:
		return 0.25
	case PhaseV:
		return 0.35
	case PhaseW, PhaseX:
		return 0.28
	default: // UP, DOWN: matvec-dominated
		return 0.32
	}
}

// tally accumulates raw structural counts for one phase; Profile()
// converts them to instruction and traffic counts.
type tally struct {
	kernelEvals  int64 // kernel evaluation + accumulate pairs
	matvecOps    int64 // dense matrix-vector multiply-accumulate elements
	fftFlops     float64
	fftPoints    int64 // complex grid points touched by pointwise stages
	tileWords    int64 // source-tile words staged from L2/DRAM
	gridReads    int64 // FFT-grid words read per V-list pair
	smWords      int64 // words explicitly staged through shared memory
	streamWords  int64 // words streamed exactly once (DRAM)
	operandWords int64 // small per-op operand words (L1-resident)
}

// Memory-hierarchy assignment heuristics, calibrated to the Kepler
// GPU's tiling strategy and the TK1's cache sizes (48 KB shared, 16 KB
// L1, 128 KB L2). See DESIGN.md §2 for why these stand in for the
// paper's nvprof measurements.
const (
	// smWordsPerEval: shared-memory words read per direct interaction —
	// a staged source point (4 doubles) is broadcast across a warp, so
	// each interaction accounts for 8/2 = 4 words of shared traffic.
	smWordsPerEval = 4
	// tileL2Fraction: fraction of source-tile staging traffic served by
	// the L2; the rest misses to DRAM (the per-phase point working set
	// far exceeds the TK1's 128 KB L2).
	tileL2Fraction = 0.5
	// gridDRAMFraction: fraction of V-phase FFT-grid reads that miss to
	// DRAM — per-level grid working sets are tens of MB against the
	// TK1's 128 KB L2, partially mitigated by offset-ordered batching.
	// This is the paper's observation that the V phase is memory-
	// bandwidth bound.
	gridDRAMFraction = 0.35
	// matvecIntPerOp: integer index instructions per dense matvec MAC.
	matvecIntPerOp = 1.5
	// fftIntPerFlop: integer (index/twiddle/bit-reversal) instructions
	// per FFT flop.
	fftIntPerFlop = 1.0
)

// Profile converts the raw tallies to the operation profile the energy
// model consumes.
func (t *tally) Profile() counters.Profile {
	var p counters.Profile

	// Instructions.
	ke := float64(t.kernelEvals)
	p.DPFMA += ke * evalDPFMA
	p.DPMul += ke * evalDPMul
	p.DPAdd += ke * evalDPAdd
	p.Int += ke * evalInt

	mv := float64(t.matvecOps)
	p.DPFMA += mv
	p.Int += mv * matvecIntPerOp

	p.DPMul += t.fftFlops * 0.4
	p.DPAdd += t.fftFlops * 0.6
	p.Int += t.fftFlops * fftIntPerFlop

	// Pointwise spectral stage: one complex multiply-accumulate (4 FMA)
	// plus the 3-D grid index arithmetic (~6 integer ops) per point.
	fp := float64(t.fftPoints)
	p.DPFMA += fp * 4
	p.Int += fp * 6

	// Traffic.
	p.SharedWords += ke*smWordsPerEval + float64(t.smWords)
	// Dense matvec operands stream through shared memory as well (the
	// operator tile) at ~1 word per MAC.
	p.SharedWords += mv

	tw := float64(t.tileWords)
	p.L2Words += tw * tileL2Fraction
	p.DRAMWords += tw * (1 - tileL2Fraction)

	gr := float64(t.gridReads)
	p.DRAMWords += gr * gridDRAMFraction
	p.L2Words += gr * (1 - gridDRAMFraction)

	p.DRAMWords += float64(t.streamWords)
	p.L1Words += float64(t.operandWords)
	return p
}

// PhaseProfiles maps each phase to its operation profile.
type PhaseProfiles [NumPhases]counters.Profile

// Total returns the sum over phases.
func (pp PhaseProfiles) Total() counters.Profile {
	var out counters.Profile
	for _, p := range pp {
		out = out.Add(p)
	}
	return out
}

const (
	pointWords  = 8 // 3 coordinates + 1 density, as 32-bit words
	targetWords = 6 // 3 coordinates
	dpWords     = 2 // one double
)

// countPhases derives the exact per-phase tallies from the tree
// structure. This pass is separate from the (parallel) numerical
// evaluation so that counts are deterministic and exact.
func countPhases(t *Tree, nsurf int, useFFT bool, surfaceOrder int) [NumPhases]tally {
	var ts [NumPhases]tally
	ns := int64(nsurf)
	ns2 := ns * ns

	// Per-level V-pair counts for the FFT variant.
	type levelAgg struct {
		sources map[int32]bool
		targets int64
		pairs   int64
	}
	levels := map[int]*levelAgg{}

	for i := range t.Nodes {
		n := &t.Nodes[i]
		npts := int64(n.NumSources())

		// UP phase.
		if n.Leaf {
			ts[PhaseUp].kernelEvals += npts * ns // P2M source -> check
			ts[PhaseUp].matvecOps += ns2         // check -> equivalent
			ts[PhaseUp].tileWords += npts * pointWords
			ts[PhaseUp].operandWords += ns * dpWords
		} else {
			for _, c := range n.Children {
				if c != nilNode {
					ts[PhaseUp].matvecOps += ns2 // M2M child -> parent check
					ts[PhaseUp].operandWords += ns * dpWords
				}
			}
			ts[PhaseUp].matvecOps += ns2 // check -> equivalent
		}

		// V phase.
		if len(n.V) > 0 {
			if useFFT {
				la := levels[n.Level]
				if la == nil {
					la = &levelAgg{sources: map[int32]bool{}}
					levels[n.Level] = la
				}
				la.targets++
				la.pairs += int64(len(n.V))
				for _, v := range n.V {
					la.sources[v] = true
				}
			} else {
				ts[PhaseV].matvecOps += int64(len(n.V)) * ns2
				ts[PhaseV].gridReads += int64(len(n.V)) * ns * dpWords
				ts[PhaseV].operandWords += ns * dpWords
			}
		}

		// X phase: source points of each X-list member to this node's
		// check surface.
		for _, x := range n.X {
			nx := int64(t.Nodes[x].NumSources())
			ts[PhaseX].kernelEvals += nx * ns
			ts[PhaseX].tileWords += nx * pointWords
		}

		// DOWN phase.
		ts[PhaseDown].matvecOps += ns2 // check -> downward equivalent
		if n.Parent != nilNode {
			ts[PhaseDown].matvecOps += ns2 // L2L
			ts[PhaseDown].operandWords += ns * dpWords
		}
		if n.Leaf {
			ts[PhaseDown].kernelEvals += npts * ns // L2P
			ts[PhaseDown].streamWords += npts * (targetWords + dpWords)
		}

		if !n.Leaf {
			continue
		}

		// U phase: direct interactions against adjacent leaves.
		for _, u := range n.U {
			src := int64(t.Nodes[u].NumSources())
			ts[PhaseU].kernelEvals += npts * src
			ts[PhaseU].tileWords += src * pointWords
		}
		ts[PhaseU].streamWords += npts * (targetWords + dpWords)

		// W phase: W-member equivalent densities evaluated at targets.
		for range n.W {
			ts[PhaseW].kernelEvals += npts * ns
			ts[PhaseW].tileWords += ns * dpWords
		}
	}

	if useFFT {
		m := 2 * surfaceOrder
		nfft := int64(m * m * m)
		fftCost := fft.FlopEstimate(int(nfft))
		for _, la := range levels {
			nodes := int64(len(la.sources)) + la.targets
			ts[PhaseV].fftFlops += float64(nodes) * fftCost
			ts[PhaseV].fftPoints += la.pairs * nfft
			// Per pair: the source box's spectral grid is fetched (complex
			// = 2 doubles per point) while the target accumulator lives in
			// shared memory (read + write per point). Kernel grids are
			// batched per offset and amortize to noise.
			ts[PhaseV].gridReads += la.pairs * nfft * 2 * dpWords
			ts[PhaseV].smWords += la.pairs * nfft * 2 * dpWords
		}
	}
	return ts
}
