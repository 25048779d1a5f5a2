//go:build race

package congest

func init() { raceEnabled = true }
