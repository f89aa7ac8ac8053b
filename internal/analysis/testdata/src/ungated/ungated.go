// Package ungated carries no expectation comments at all: every rule
// that is gated by package name (unittypes, the map-order sub-rule of
// determinism) must stay completely silent here.
package ungated

// Quantity has an exported raw float64; unittypes is gated to
// core/tegra/serve/fleet/powermon/dvfs.
type Quantity struct {
	Amount float64
}

// Raw returns raw float64 from an exported function; unittypes stays
// quiet outside its gate.
func Raw(q Quantity) float64 { return q.Amount }

// keys appends under a map range; the map-order rule is gated to the
// measurement and experiment packages.
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
