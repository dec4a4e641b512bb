//go:build !race

package kleebench

const raceEnabled = false
