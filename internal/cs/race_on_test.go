//go:build race

package cs

// raceEnabled reports whether the race detector is active. Allocation
// bounds are skipped under race: the detector randomizes sync.Pool
// retention, so pooled decode workspaces count as fresh allocations there.
const raceEnabled = true
