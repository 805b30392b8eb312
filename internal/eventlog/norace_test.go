//go:build !race

package eventlog

const raceEnabled = false
