//go:build !race

package pipeline_test

const raceEnabled = false
