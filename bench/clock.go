package bench

import "time"

// now is the benchmark's one wall-clock read: every latency, pass time,
// set-up time, span and deadline goes through it, so the single audited
// exemption below is the whole of the benchmark's nondeterminism.
func now() time.Time {
	//energylint:allow determinism(the benchmark measures elapsed wall time by design; no checked output depends on it)
	return time.Now()
}
