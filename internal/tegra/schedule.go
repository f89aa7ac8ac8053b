package tegra

import "dvfsroofline/internal/units"

// Schedule is a sequence of executions run back to back on the device —
// how a phased application such as the FMM occupies the SoC. The
// PowerMon simulator samples a schedule's combined power trace exactly as
// it samples a single run's.
type Schedule struct {
	Execs []Execution
}

// Duration returns the total wall-clock time of the schedule.
func (s Schedule) Duration() units.Second {
	var d units.Second
	for _, e := range s.Execs {
		d += e.Time
	}
	return d
}

// PowerAt returns the instantaneous power at time t into the schedule.
// Before the start or after the end the device idles at the first/last
// segment's constant power.
func (s Schedule) PowerAt(t units.Second) units.Watt {
	if len(s.Execs) == 0 {
		return 0
	}
	if t < 0 {
		return s.Execs[0].PowerAt(-1)
	}
	for i := range s.Execs {
		e := &s.Execs[i]
		if t < e.Time {
			return e.PowerAt(t)
		}
		t -= e.Time
	}
	last := &s.Execs[len(s.Execs)-1]
	return last.PowerAt(last.Time + 1)
}

// TrueEnergy returns the closed-form total energy (for tests and
// oracles; the modeling pipeline uses PowerMon measurements).
func (s Schedule) TrueEnergy() units.Joule {
	var e units.Joule
	for _, x := range s.Execs {
		e += x.TrueEnergy()
	}
	return e
}
