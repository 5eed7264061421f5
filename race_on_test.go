//go:build race

package zoomlens

// raceEnabled reports a build with the race detector, which drops a share
// of sync.Pool puts on purpose and instruments allocation, so allocation
// budgets do not hold under it.
const raceEnabled = true
