//go:build !race

package ids_test

const raceEnabled = false
