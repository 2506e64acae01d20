//go:build race

package api

func init() { raceEnabled = true }
