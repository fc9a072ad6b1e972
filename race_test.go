//go:build race

package repro_bench

func init() { raceEnabled = true }
