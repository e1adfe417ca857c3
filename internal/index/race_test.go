//go:build race

package index

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of the items put back, so allocation bounds that rely on
// pooling do not hold under it.
const raceEnabled = true
