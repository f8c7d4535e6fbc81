//go:build !race

package coord

// raceEnabled reports whether the race detector instruments this build;
// alloc pins are meaningless under its bookkeeping allocations.
const raceEnabled = false
