// Package units defines the physical-quantity types the Eq. 9 energy
// model is written in. Every type is a defined float64: the JSON and
// CSV encodings are byte-identical to the raw floats they replace, but
// a swapped Watt/Joule argument is now a compile error instead of a
// review comment. The energylint unittypes rule forbids raw float64 on
// exported signatures in the packages that adopted these types.
//
// Numeric scales match the quantities they replace exactly — a
// units.MegaHertz holds the same number the old FreqMHz float64 held —
// so no fixture, fitted constant, or golden file moves.
package units

// Second is a duration in seconds.
type Second float64

// Joule is an energy in joules.
type Joule float64

// Watt is a power in watts.
type Watt float64

// Volt is an electric potential in volts.
type Volt float64

// MilliVolt is an electric potential in millivolts, the scale the DVFS
// tables are specified in.
type MilliVolt float64

// VoltSq is a squared potential in volts², the factor scaling dynamic
// energy per operation in Eq. 9.
type VoltSq float64

// Hertz is a frequency in hertz.
type Hertz float64

// MegaHertz is a frequency in MHz, the scale the DVFS tables are
// specified in.
type MegaHertz float64

// JoulePerOp is an energy cost in joules per operation.
type JoulePerOp float64

// PicoJoulePerOp is an energy cost in pJ per operation, the scale the
// paper reports fitted per-op constants in.
type PicoJoulePerOp float64

// PicoJoulePerOpPerVoltSq is a dynamic-energy coefficient in pJ/op/V²:
// the ĉ0 constants of Eq. 9 before the V² scaling is applied.
type PicoJoulePerOpPerVoltSq float64

// WattPerVolt is a leakage coefficient in W/V: the c1 constants of
// Eq. 9 before the rail voltage is applied.
type WattPerVolt float64

// Ratio is a dimensionless fraction or multiplier (occupancy, gain
// error, throttle factor, relative error).
type Ratio float64

// Percent is a dimensionless quantity scaled by 100.
type Percent float64

// Count is a dimensionless operation or word count.
type Count float64

// OpsPerSecond is a throughput in operations per second.
type OpsPerSecond float64

// WordsPerSecond is a memory throughput in words per second.
type WordsPerSecond float64

// OpsPerWord is an arithmetic intensity in operations per word.
type OpsPerWord float64

// OpsPerJoule is an energy efficiency in operations per joule.
type OpsPerJoule float64

// PerCycle is a per-clock-cycle rate (instructions per cycle, words
// per cycle).
type PerCycle float64

// Energy is the defining identity E = P·T.
func Energy(p Watt, t Second) Joule { return Joule(float64(p) * float64(t)) }

// Hertz converts MHz to Hz.
func (f MegaHertz) Hertz() Hertz { return Hertz(float64(f) * 1e6) }

// Volts converts millivolts to volts.
func (mv MilliVolt) Volts() Volt { return Volt(float64(mv) * 1e-3) }

// Squared is the V² factor of Eq. 9's dynamic term.
func (v Volt) Squared() VoltSq { return VoltSq(float64(v) * float64(v)) }

// At scales a pJ/op/V² coefficient by a squared rail voltage,
// producing the per-op dynamic cost at that operating point.
func (c PicoJoulePerOpPerVoltSq) At(v2 VoltSq) PicoJoulePerOp {
	return PicoJoulePerOp(float64(c) * float64(v2))
}

// At scales a W/V leakage coefficient by a rail voltage, producing the
// constant-power contribution at that operating point.
func (c WattPerVolt) At(v Volt) Watt { return Watt(float64(c) * float64(v)) }
