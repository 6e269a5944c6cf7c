//go:build race

package pipeline_test

// raceEnabled reports a -race build: the race runtime drops a random
// share of sync.Pool puts, so allocation bounds do not hold under it.
const raceEnabled = true
