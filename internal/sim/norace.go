//go:build !race

package sim

// RaceEnabled is false without -race; see race.go.
const RaceEnabled = false
