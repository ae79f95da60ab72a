//go:build race

package explore_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
