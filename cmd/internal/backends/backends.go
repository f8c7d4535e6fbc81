// Package backends is the estimator backend table the command-line tools
// share, so impstat and impserved accept the same -backend names and each
// resumes the other's checkpoints.
package backends

import "implicate"

// Table returns the named backend factories for the given sketch seed: the
// two served estimators, whose names are also their checkpoint kinds.
func Table(seed uint64) map[string]implicate.Backend {
	return map[string]implicate.Backend{
		"nips":  implicate.SketchBackend(implicate.Options{Seed: seed}),
		"exact": implicate.ExactBackend(),
	}
}
