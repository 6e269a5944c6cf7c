//go:build !race

package controlserver

const raceEnabled = false
