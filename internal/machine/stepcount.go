package machine

import "sync/atomic"

// Shared-memory step accounting. Every Resume is one step in the
// paper's sense (one operation applied to a shared object), so a global
// tally here counts steps across every engine — model checker,
// simulator, sweeps — without threading a sink through the hottest call
// path; steps an engine answers from a memo of earlier Resumes are
// added with CountSteps. The counter is disabled by default and gated behind an atomic
// flag, so uninstrumented runs pay a single atomic load per step; the
// cmd tools enable it when -metrics or -events is given and report the
// delta as the machine.steps counter.
var (
	stepCountEnabled atomic.Bool
	stepCount        atomic.Int64
)

// EnableStepCount switches global shared-step counting on or off. The
// tally is cumulative across runs; callers interested in one run record
// TotalSteps before and after and report the difference.
func EnableStepCount(on bool) { stepCountEnabled.Store(on) }

// TotalSteps returns the cumulative number of shared-memory steps
// executed (Resume calls and CountSteps tallies) while counting was
// enabled.
func TotalSteps() int64 { return stepCount.Load() }

// countStep tallies one shared-memory step if counting is enabled.
func countStep() {
	if stepCountEnabled.Load() {
		stepCount.Add(1)
	}
}

// CountSteps tallies n shared-memory steps taken without a Resume call:
// the model checker serves repeated steps from a memo of earlier
// Resumes, and counts them here so the tally stays one per step.
func CountSteps(n int) {
	if n > 0 && stepCountEnabled.Load() {
		stepCount.Add(int64(n))
	}
}
