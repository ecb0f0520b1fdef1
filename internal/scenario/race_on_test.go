//go:build race

package scenario

// raceEnabled reports that the race detector is compiled in; it pads
// allocations, so byte ceilings do not apply.
const raceEnabled = true
