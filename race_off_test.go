//go:build !race

package zoomlens

// raceEnabled reports a build with the race detector.
const raceEnabled = false
