// Package backends is the estimator backend table the command-line tools
// share, so impstat and impserved accept the same -backend names and each
// resumes the other's checkpoints.
package backends

import "implicate"

// Table returns the named backend factories for the given sketch seed, ILC
// approximation parameter and Distinct Sampling budget and bound.
func Table(seed uint64, ilcEps float64, dsSize, dsBound int) map[string]implicate.Backend {
	return map[string]implicate.Backend{
		"nips":  implicate.SketchBackend(implicate.Options{Seed: seed}),
		"exact": implicate.ExactBackend(),
		"ilc": func(cond implicate.Conditions) (implicate.Estimator, error) {
			return implicate.NewILC(cond, ilcEps, ilcEps)
		},
		"ds": func(cond implicate.Conditions) (implicate.Estimator, error) {
			return implicate.NewDistinctSampling(cond, dsSize, dsBound, seed+7)
		},
	}
}
