//go:build race

package coconut

func init() { raceEnabled = true }
