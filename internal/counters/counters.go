// Package counters reproduces the performance-counter layer the paper
// uses to profile its FMM implementation (Table III): nvprof-style
// counter *events* (raw hardware counts) and *metrics* (characteristics
// derived from one or more events). Applications record events; the
// package derives an operation Profile — instruction counts by class and
// word traffic by memory-hierarchy level — which is exactly the input the
// DVFS-aware energy roofline consumes.
package counters

import (
	"fmt"
	"math"
	"sort"
)

// Kind distinguishes raw counter events from derived metrics, matching
// the "Type" column of Table III.
type Kind byte

const (
	// Event is a single hardware counter value (Table III type "E").
	Event Kind = 'E'
	// Metric is a characteristic derived from one or more events
	// (Table III type "M").
	Metric Kind = 'M'
)

// Descriptor documents one counter, mirroring a row of Table III.
type Descriptor struct {
	Kind        Kind
	Name        string
	Description string
}

// Table III counter names. Events are raw; metrics are derived.
const (
	FlopsDPFMA  = "flops_dp_fma"
	FlopsDPAdd  = "flops_dp_add"
	FlopsDPMul  = "flops_dp_mul"
	InstInteger = "inst_integer"

	L1GlobalLoadHit          = "l1_global_load_hit"
	L2Subp0TotalReadQueries  = "l2_subp0_total_read_sector_queries"
	GLDRequest               = "gld_request"
	L1SharedLoadTransactions = "l1_shared_load_transactions"
	FBSubp0ReadSectors       = "fb_subp0_read_sectors"
	FBSubp1ReadSectors       = "fb_subp1_read_sectors"
	L2Subp0ReadL1HitSectors  = "l2_subp0_read_l1_hit_sectors"
	L2Subp1ReadL1HitSectors  = "l2_subp1_read_l1_hit_sectors"
	L2Subp2ReadL1HitSectors  = "l2_subp2_read_l1_hit_sectors"
	L2Subp3ReadL1HitSectors  = "l2_subp3_read_l1_hit_sectors"
	GSTRequest               = "gst_request"
	L2Subp0TotalWriteQueries = "l2_subp0_total_write_sector_queries"
	L1SharedStoreTransaction = "l1_shared_store_transactions"
)

// Registry lists every counter of Table III in the paper's order.
var Registry = []Descriptor{
	{Metric, FlopsDPFMA, "# of double-precision floating point multiply-accumulate operations"},
	{Metric, FlopsDPAdd, "# of double-precision floating point add operations"},
	{Metric, FlopsDPMul, "# of double-precision floating point multiply operations"},
	{Metric, InstInteger, "# of integer instructions"},
	{Event, L1GlobalLoadHit, "# of cache lines that hit in L1 cache"},
	{Event, L2Subp0TotalReadQueries, "Total read request for slice 0 of L2 cache"},
	{Event, GLDRequest, "# of load instructions"},
	{Event, L1SharedLoadTransactions, "# of shared load transactions"},
	{Event, FBSubp0ReadSectors, "# of DRAM read request to sub partition 0"},
	{Event, FBSubp1ReadSectors, "# of DRAM read request to sub partition 1"},
	{Event, L2Subp0ReadL1HitSectors, "# of read requests from L1 that hit in slice 0 of L2 cache"},
	{Event, L2Subp1ReadL1HitSectors, "# of read requests from L1 that hit in slice 1 of L2 cache"},
	{Event, L2Subp2ReadL1HitSectors, "# of read requests from L1 that hit in slice 2 of L2 cache"},
	{Event, L2Subp3ReadL1HitSectors, "# of read requests from L1 that hit in slice 3 of L2 cache"},
	{Event, GSTRequest, "# of store instructions"},
	{Event, L2Subp0TotalWriteQueries, "Total write request to slice 0 of L2 cache"},
	{Event, L1SharedStoreTransaction, "# of shared store transactions"},
}

// Lookup returns the descriptor for a counter name.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range Registry {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Hardware geometry constants for the Tegra K1's Kepler GPU, used when
// converting transaction counts to bytes.
const (
	SectorBytes      = 32  // L2/DRAM sector size
	L1LineBytes      = 128 // L1 cache line size
	SharedTransBytes = 128 // shared-memory transaction width (32 banks x 4 B)
	WordBytes        = 4   // the energy model's "mop" unit: one 32-bit word
	L2Slices         = 4   // L2 slice count (subp0..subp3)
)

// Set is a bag of recorded counter values keyed by counter name.
type Set map[string]float64

// Add accumulates v into counter name.
func (s Set) Add(name string, v float64) { s[name] += v }

// Merge adds every counter of other into s.
func (s Set) Merge(other Set) {
	for k, v := range other {
		s[k] += v
	}
}

// Names returns the recorded counter names in sorted order.
func (s Set) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Validate reports an error if the set contains an unknown counter name
// or a negative or non-finite value. Counters are checked in name order,
// so with several bad counters the error always names the same one.
func (s Set) Validate() error {
	for _, k := range s.Names() {
		v := s[k]
		if _, ok := Lookup(k); !ok {
			return fmt.Errorf("counters: unknown counter %q", k)
		}
		if v < 0 {
			return fmt.Errorf("counters: negative value %g for %q", v, k)
		}
		if math.IsNaN(v) || math.IsInf(v, 1) {
			return fmt.Errorf("counters: non-finite value %g for %q", v, k)
		}
	}
	return nil
}

// Profile is the operation breakdown the energy model consumes: floating
// point and integer instruction counts, and word (32-bit) traffic per
// memory-hierarchy level. It corresponds to the stacked bars of the
// paper's Figure 4.
type Profile struct {
	DPFMA float64 // double-precision fused multiply-add instructions
	DPAdd float64 // double-precision add instructions
	DPMul float64 // double-precision multiply instructions
	SP    float64 // single-precision flop instructions (zero for the DP FMM)
	Int   float64 // integer instructions

	SharedWords float64 // words served by shared memory
	L1Words     float64 // words served by the L1 cache
	L2Words     float64 // words served by the L2 cache
	DRAMWords   float64 // words served by DRAM
}

// Add returns the element-wise sum of two profiles.
func (p Profile) Add(q Profile) Profile {
	return Profile{
		DPFMA: p.DPFMA + q.DPFMA, DPAdd: p.DPAdd + q.DPAdd,
		DPMul: p.DPMul + q.DPMul, SP: p.SP + q.SP, Int: p.Int + q.Int,
		SharedWords: p.SharedWords + q.SharedWords,
		L1Words:     p.L1Words + q.L1Words,
		L2Words:     p.L2Words + q.L2Words,
		DRAMWords:   p.DRAMWords + q.DRAMWords,
	}
}

// Scale returns the profile multiplied element-wise by k.
func (p Profile) Scale(k float64) Profile {
	return Profile{
		DPFMA: p.DPFMA * k, DPAdd: p.DPAdd * k, DPMul: p.DPMul * k,
		SP: p.SP * k, Int: p.Int * k,
		SharedWords: p.SharedWords * k, L1Words: p.L1Words * k,
		L2Words: p.L2Words * k, DRAMWords: p.DRAMWords * k,
	}
}

// Instructions returns the total computation instruction count.
func (p Profile) Instructions() float64 {
	return p.DPFMA + p.DPAdd + p.DPMul + p.SP + p.Int
}

// DPFlops returns the double-precision flop count, with FMA counted as
// two flops.
func (p Profile) DPFlops() float64 { return 2*p.DPFMA + p.DPAdd + p.DPMul }

// Accesses returns the total word traffic across all hierarchy levels.
func (p Profile) Accesses() float64 {
	return p.SharedWords + p.L1Words + p.L2Words + p.DRAMWords
}

// IntegerFraction returns the integer share of computation instructions
// (the paper observes ~60% for the FMM).
func (p Profile) IntegerFraction() float64 {
	t := p.Instructions()
	if t == 0 {
		return 0
	}
	return p.Int / t
}

// DRAMFraction returns the DRAM share of all word accesses (the paper
// observes ~13% for the FMM).
func (p Profile) DRAMFraction() float64 {
	t := p.Accesses()
	if t == 0 {
		return 0
	}
	return p.DRAMWords / t
}

// Derive reconstructs a Profile from raw counter events exactly the way
// the paper does (Section IV-A): instruction counts are read from the
// corresponding metrics; bytes per hierarchy level are read from counter
// metrics or inferred from combinations of events — e.g. reads served by
// the L2 cache are the total L2 read queries minus the bytes that had to
// come from DRAM.
func Derive(s Set) (Profile, error) {
	if err := s.Validate(); err != nil {
		return Profile{}, err
	}
	var p Profile
	p.DPFMA = s[FlopsDPFMA]
	p.DPAdd = s[FlopsDPAdd]
	p.DPMul = s[FlopsDPMul]
	p.Int = s[InstInteger]

	dramBytes := (s[FBSubp0ReadSectors] + s[FBSubp1ReadSectors]) * SectorBytes
	// Total L2 read traffic: the per-slice counter scaled to all slices.
	l2TotalBytes := s[L2Subp0TotalReadQueries] * L2Slices * SectorBytes
	l2HitBytes := l2TotalBytes - dramBytes
	if l2HitBytes < 0 {
		return Profile{}, fmt.Errorf("counters: inconsistent events: DRAM bytes %.0f exceed total L2 queries %.0f", dramBytes, l2TotalBytes)
	}
	l1Bytes := s[L1GlobalLoadHit] * L1LineBytes
	sharedBytes := (s[L1SharedLoadTransactions] + s[L1SharedStoreTransaction]) * SharedTransBytes

	// Write traffic through the L2 counts as L2 words as well.
	l2WriteBytes := s[L2Subp0TotalWriteQueries] * L2Slices * SectorBytes

	p.SharedWords = sharedBytes / WordBytes
	p.L1Words = l1Bytes / WordBytes
	p.L2Words = (l2HitBytes + l2WriteBytes) / WordBytes
	p.DRAMWords = dramBytes / WordBytes
	return p, nil
}

// Emit converts a Profile back into the raw counter events a profiler
// would have recorded for it. Derive(Emit(p)) == p for profiles whose
// byte counts are representable in whole transactions; the FMM
// instrumentation emits events through this path so that the analysis
// pipeline exercises the same event arithmetic as the paper's scripts.
func Emit(p Profile) Set {
	s := Set{}
	s[FlopsDPFMA] = p.DPFMA
	s[FlopsDPAdd] = p.DPAdd
	s[FlopsDPMul] = p.DPMul
	s[InstInteger] = p.Int

	dramBytes := p.DRAMWords * WordBytes
	s[FBSubp0ReadSectors] = dramBytes / 2 / SectorBytes
	s[FBSubp1ReadSectors] = dramBytes / 2 / SectorBytes

	// All L2 hit traffic is read traffic in this emission; total L2 read
	// queries include the misses that went to DRAM.
	l2Bytes := p.L2Words * WordBytes
	s[L2Subp0TotalReadQueries] = (l2Bytes + dramBytes) / L2Slices / SectorBytes
	for i, name := range []string{L2Subp0ReadL1HitSectors, L2Subp1ReadL1HitSectors, L2Subp2ReadL1HitSectors, L2Subp3ReadL1HitSectors} {
		_ = i
		s[name] = l2Bytes / L2Slices / SectorBytes
	}
	s[L1GlobalLoadHit] = p.L1Words * WordBytes / L1LineBytes
	s[L1SharedLoadTransactions] = p.SharedWords * WordBytes / SharedTransBytes
	s[L1SharedStoreTransaction] = 0
	s[L2Subp0TotalWriteQueries] = 0

	// One load instruction per 32-word coalesced request approximates the
	// gld/gst counters; they are informational and not used by Derive.
	s[GLDRequest] = (p.L1Words + p.L2Words + p.DRAMWords) / 32
	s[GSTRequest] = 0
	return s
}
