//go:build race

package main

// The race detector slows the served paths several times over; the smoke
// test stretches its regions so that they still collect a p90's worth of
// query samples.
const raceSlowdown = 8
