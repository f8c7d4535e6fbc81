//go:build !race

// Package raceflag tells tests whether the race detector instruments this
// build: allocation pins are meaningless under its bookkeeping allocations.
package raceflag

// Enabled reports whether the build carries the race detector.
const Enabled = false
