// Package microbench reproduces the paper's "intensity" microbenchmark
// suite (§II-C, from the authors' archline project): highly tuned kernels
// that exercise one operation class — single-precision flops, double-
// precision flops, integer ops, shared-memory traffic, L2 traffic, or
// DRAM streaming — at a sweepable arithmetic intensity (operations of the
// target class per word of DRAM data).
//
// Running the full suite over the paper's 16 calibration settings yields
// 116 benchmarks x 16 settings = 1856 sample measurements, the exact
// sample count quoted in §II-C.
package microbench

import (
	"fmt"
	"math"
	"sync"

	"dvfsroofline/internal/counters"
	"dvfsroofline/internal/dvfs"
	"dvfsroofline/internal/faults"
	"dvfsroofline/internal/powermon"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/tegra"
	"dvfsroofline/internal/units"
)

// Kind enumerates the microbenchmark families. The first five match the
// rows of the paper's Table II; DRAM is the pure-streaming family that
// rounds the suite out to the paper's 116 kernels.
type Kind int

const (
	Single Kind = iota
	Double
	Integer
	Shared
	L2
	DRAM
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Single:
		return "Single"
	case Double:
		return "Double"
	case Integer:
		return "Integer"
	case Shared:
		return "Shared memory"
	case L2:
		return "L2"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns every benchmark family.
func Kinds() []Kind {
	return []Kind{Single, Double, Integer, Shared, L2, DRAM}
}

// intensityCount gives the number of swept intensities per family. The
// Table II families match the paper's "out of N" counts (25, 36, 23, 10,
// 9); DRAM's 13 completes the 116-kernel suite.
func (k Kind) intensityCount() int {
	switch k {
	case Single:
		return 25
	case Double:
		return 36
	case Integer:
		return 23
	case Shared:
		return 10
	case L2:
		return 9
	case DRAM:
		return 13
	default:
		panic(fmt.Sprintf("microbench: unknown kind %d", int(k)))
	}
}

// Intensities returns the family's swept arithmetic intensities: target
// operations per DRAM word, geometrically spaced. Compute families sweep
// from memory-bound (1/4 op per word) to strongly compute-bound; cache
// families sweep the ratio of cache words to DRAM words; DRAM sweeps a
// small flop dressing on a pure stream.
func (k Kind) Intensities() []float64 {
	n := k.intensityCount()
	var lo, hi float64
	switch k {
	case Single, Double, Integer:
		lo, hi = 0.25, 512
	case Shared, L2:
		lo, hi = 1, 64
	case DRAM:
		lo, hi = 1.0/64, 1
	}
	return geomspace(lo, hi, n)
}

func geomspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range out {
		out[i] = x
		x *= ratio
	}
	out[n-1] = hi
	return out
}

// Benchmark identifies one kernel: a family at one arithmetic intensity.
type Benchmark struct {
	Kind      Kind
	Intensity float64 // target ops per DRAM word
}

// Suite returns all 116 benchmarks of the suite, family-major.
func Suite() []Benchmark {
	var out []Benchmark
	for _, k := range Kinds() {
		for _, ai := range k.Intensities() {
			out = append(out, Benchmark{Kind: k, Intensity: ai})
		}
	}
	return out
}

// occupancy returns the issue efficiency of a family's kernels. The
// paper's microbenchmarks are hand-tuned to saturate their target
// resource ("utilize close to 100%", §IV-C); cache-traffic kernels pay a
// small banking/tag overhead.
func (k Kind) occupancy() float64 {
	switch k {
	case Shared, L2:
		return 0.90
	default:
		return 0.97
	}
}

// loopOverheadInt is the integer loop/address overhead per element all
// real kernels carry, as a fraction of an element's target operations.
const loopOverheadInt = 0.02

// Workload materializes the benchmark as an operation profile with the
// given number of stream elements. Each element moves one word from DRAM
// and performs Intensity operations of the target class (for cache
// families, Intensity words of cache traffic).
func (b Benchmark) Workload(elements float64) tegra.Workload {
	if elements <= 0 {
		panic(fmt.Sprintf("microbench: non-positive element count %g", elements))
	}
	var p counters.Profile
	ops := b.Intensity * elements
	p.DRAMWords = elements
	switch b.Kind {
	case Single:
		p.SP = ops
		p.Int = loopOverheadInt * ops
	case Double:
		p.DPFMA = ops
		p.Int = loopOverheadInt * ops
	case Integer:
		p.Int = ops
	case Shared:
		p.SharedWords = ops
		p.Int = loopOverheadInt * ops
	case L2:
		p.L2Words = ops
		p.Int = loopOverheadInt * ops
	case DRAM:
		p.SP = ops // light flop dressing on the stream
		p.Int = loopOverheadInt * elements
	default:
		panic(fmt.Sprintf("microbench: unknown kind %d", int(b.Kind)))
	}
	return tegra.Workload{Profile: p, Occupancy: units.Ratio(b.Kind.occupancy())}
}

// Sample is one measured benchmark execution: the model's training row.
type Sample struct {
	Bench    Benchmark
	Setting  dvfs.Setting
	Workload tegra.Workload
	Time     units.Second // measured
	Energy   units.Joule  // integrated from PowerMon samples
	Power    units.Watt   // Energy / Time
}

// Runner executes benchmarks on a device and measures each run with its
// own deterministically seeded meter.
//
// Every (benchmark, setting) sample draws its measurement noise from a
// meter seeded afresh with the seed SampleSeed derives from the campaign
// Seed and the *identity* of the pair — never from its position in a
// run. Two properties follow, and the experiment pipeline leans on both:
//
//   - Order independence: running a subset of the suite, or the same
//     benchmarks in a different order, reproduces identical samples.
//   - Parallel determinism: callers may fan samples out over any number
//     of workers and still obtain the byte-identical result of a serial
//     sweep.
type Runner struct {
	Device *tegra.Device
	// MeterConfig configures the per-sample meters; the zero value
	// selects powermon.DefaultConfig().
	MeterConfig powermon.Config
	// Seed is the campaign seed from which every per-sample meter seed
	// is derived.
	Seed int64
	// TargetTime is the wall-clock window each kernel is sized to fill so
	// that the meter integrates enough samples. Zero selects 0.3 s.
	TargetTime float64
	// Faults is the deterministic fault-injection plan threaded through
	// every measurement (DVFS transition failures, throttle windows,
	// meter faults). The zero Plan injects nothing. Faults derive from
	// the same (benchmark, setting) identity as the measurement noise,
	// so they too are order- and worker-count-independent.
	Faults faults.Plan
}

// SampleSeed derives the meter seed for one (benchmark, setting) sample
// from the campaign seed and the pair's identity, via FNV-1a over the
// constituent bit patterns. Using identities rather than loop indices is
// what makes Runner measurements independent of execution order.
func SampleSeed(seed int64, b Benchmark, s dvfs.Setting) int64 {
	return stats.MixSeed(seed,
		int64(b.Kind),
		int64(math.Float64bits(b.Intensity)),
		int64(math.Float64bits(float64(s.Core.FreqMHz))),
		int64(math.Float64bits(float64(s.Core.VoltageMV))),
		int64(math.Float64bits(float64(s.Mem.FreqMHz))),
		int64(math.Float64bits(float64(s.Mem.VoltageMV))))
}

// Measure takes one measurement attempt of exec and returns the energy
// of one execution: the fault-aware measurement that calibration samples
// and autotune sweep candidates share. The meter comes from a pool and
// is reseeded in place, and it integrates without keeping its samples.
//
// key is the unit's identity-derived seed and attempt its zero-based
// retry count. The attempt's injector, plan.ForSample(key, attempt),
// gates the DVFS transition, may throttle exec's power trace, and rides
// along into the meter to corrupt or abort the sampling session;
// injected failures are transient (faults.IsTransient), so callers
// retry with the next attempt number. Attempt 0 seeds the meter with
// key itself, so the fault-free path is byte-identical with or without
// an inactive plan; retries remix the attempt number so a
// re-measurement redraws its noise instead of replaying the corrupted
// stream. A zero cfg selects powermon.DefaultConfig().
//
// b is the microbenchmark that exec runs, or nil for any other
// workload. A benchmark run is sized to fill the measurement window, so
// it is measured as is, one too short to integrate is an error, and
// every error names b and exec's setting. Any other run shorter than 16
// meter samples is repeated back to back until it fills that window, as
// the paper's harness repeats short kernels, and the integrated energy
// is divided by the repetition count; its errors are left for the
// caller to name.
func Measure(exec tegra.Execution, cfg powermon.Config, plan faults.Plan, key int64, attempt int, b *Benchmark) (_ units.Joule, err error) {
	if b != nil {
		defer func() {
			if err != nil {
				err = fmt.Errorf("microbench: measuring %v at %v: %w", *b, exec.Setting, err)
			}
		}()
	}
	if cfg == (powermon.Config{}) {
		cfg = powermon.DefaultConfig()
	}
	trace := exec.PowerAt
	if inj := plan.ForSample(key, attempt); inj != nil {
		if err := inj.DVFSTransition(); err != nil {
			return 0, err
		}
		cfg.Faults = inj
		trace = exec.ThrottledTrace(inj.ThrottleWindows(exec.Time))
	}
	seed := key
	if attempt > 0 {
		seed = stats.MixSeed(key, int64(attempt))
	}
	meter := meters.Get().(*powermon.Meter)
	defer release(meter)
	if err := meter.Reset(cfg, seed); err != nil {
		return 0, err
	}
	reps := 1.0
	if min := meter.MinDuration(16); b == nil && exec.Time < min {
		reps = math.Ceil(float64(min / exec.Time))
		// Throttle windows land inside one execution period and repeat
		// with it, so their relative energy effect is the same whether
		// the run needed repetition or not.
		period := float64(exec.Time)
		inner := trace
		trace = func(t units.Second) units.Watt {
			return inner(units.Second(math.Mod(float64(t), period)))
		}
	}
	energy, err := meter.Energy(trace, units.Second(reps*float64(exec.Time)))
	if err != nil {
		return 0, err
	}
	return units.Joule(float64(energy) / reps), nil
}

// meters recycles Measure's meters. Reset reseeds a pooled meter to the
// bits of a fresh NewMeter, so which meter a measurement gets, and how
// many it saw before, cannot change a sample.
var meters = sync.Pool{New: func() any { return new(powermon.Meter) }}

// release returns m to the pool. Resetting it to the zero config first
// drops the attempt's fault injector, so a pooled meter keeps no plan
// state alive.
func release(m *powermon.Meter) {
	_ = m.Reset(powermon.Config{}, 0) // the zero Config is valid
	meters.Put(m)
}

// Run sizes, executes and measures one benchmark at one setting: the
// attempt-0 measurement of a calibration sample. The stream is sized so
// the run fills the measurement window at s.
func (r *Runner) Run(b Benchmark, s dvfs.Setting) (Sample, error) {
	exec := r.Device.Execute(b.Workload(r.SizeFor(b, s, r.TargetTime)), s)
	energy, err := Measure(exec, r.MeterConfig, r.Faults, SampleSeed(r.Seed, b, s), 0, &b)
	if err != nil {
		return Sample{}, err
	}
	return Sample{
		Bench:    b,
		Setting:  s,
		Workload: exec.Workload,
		Time:     exec.Time,
		Energy:   energy,
		Power:    units.Watt(float64(energy) / float64(exec.Time)),
	}, nil
}

// SizeFor returns an element count such that the benchmark runs for
// about the target time at setting s.
func (r *Runner) SizeFor(b Benchmark, s dvfs.Setting, target float64) float64 {
	if target <= 0 {
		target = 0.3
	}
	probe := r.Device.Execute(b.Workload(1e6), s)
	return 1e6 * target / float64(probe.Time)
}

// RunSuite measures every benchmark at every setting, in order
// (setting-major). With the full suite and the paper's 16 calibration
// settings this produces the paper's 1856 samples. Each sample depends
// only on the (benchmark, setting) identity, so a subset or reordering
// of the suite reproduces the corresponding entries of a full sweep,
// and the experiments package can fan the same sweep out over workers
// without changing a single value.
func (r *Runner) RunSuite(benches []Benchmark, settings []dvfs.Setting) ([]Sample, error) {
	out := make([]Sample, 0, len(benches)*len(settings))
	for _, s := range settings {
		for _, b := range benches {
			smp, err := r.Run(b, s)
			if err != nil {
				return nil, err
			}
			out = append(out, smp)
		}
	}
	return out, nil
}
