//go:build race

package vm

// The race detector makes sync.Pool drop a share of what it is given, so
// pooled buffers turn into allocations at random under -race.
const raceEnabled = true
