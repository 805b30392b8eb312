//go:build !race

package schedcore

const raceEnabled = false
