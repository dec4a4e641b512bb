//go:build !race

package cegis

const raceEnabled = false
