package enumerate

import "setagree/internal/value"

// HeldFailures runs candidates [lo, hi) of p on inputVectors as
// CheckRange does and returns how many outcomes still hold a Failure
// once the workers are done.
func HeldFailures(p *Prepared, lo, hi int, inputVectors [][]value.Value, opts SweepOptions) (int, error) {
	opts.fill()
	outcomes, _, err := runCandidates(p, lo, hi, inputVectors, opts)
	held := 0
	for i := range outcomes {
		if outcomes[i].failure != nil {
			held++
		}
	}
	return held, err
}

// FullViolations returns opts with every check of the sweep reporting
// all of its violations, not just the first.
func FullViolations(opts SweepOptions) SweepOptions {
	opts.fullViolations = true
	return opts
}
