//go:build race

package tegra

// raceEnabled thins TestFoldMatchesMod's period sweep under the race
// detector, which slows its pure arithmetic tenfold and checks nothing
// in it.
const raceEnabled = true
