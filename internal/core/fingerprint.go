package core

import (
	"fmt"

	"hvc/internal/cc"
)

// CCFingerprint returns the canonical tuning description of the
// algorithm NewCC builds for name. The sweep engine folds it into
// result-cache keys, so cached cells invalidate when the algorithm's
// parameters change.
func CCFingerprint(name string) (string, error) {
	alg, err := NewCC(name)
	if err != nil {
		return "", err
	}
	if c, ok := alg.(cc.Configured); ok {
		return c.Config(), nil
	}
	return alg.Name(), nil
}

// PolicyFingerprint returns the canonical configuration of the
// steering policy NewPolicy builds for name, without needing a channel
// group: the policy table keeps it beside the constructor.
func PolicyFingerprint(name string) (string, error) {
	p, ok := lookup(policyTable, name)
	if !ok {
		return "", fmt.Errorf("core: unknown steering policy %q", name)
	}
	return p.fingerprint, nil
}
