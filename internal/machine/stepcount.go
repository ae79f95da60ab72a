package machine

import "sync/atomic"

// Shared-memory step accounting. Every Resume is one step in the
// paper's sense (one operation applied to a shared object), so a global
// tally here counts steps across every engine — model checker,
// simulator, sweeps — without threading a sink through the hottest call
// path. The counter is disabled by default and gated behind an atomic
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
// executed (Resume calls) while counting was enabled.
func TotalSteps() int64 { return stepCount.Load() }

// countStep tallies one shared-memory step if counting is enabled.
func countStep() {
	if stepCountEnabled.Load() {
		stepCount.Add(1)
	}
}
