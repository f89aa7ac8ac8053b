//go:build !race

package tegra

const raceEnabled = false
