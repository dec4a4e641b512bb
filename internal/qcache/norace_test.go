//go:build !race

package qcache

const raceEnabled = false
