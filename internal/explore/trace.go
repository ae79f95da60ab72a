package explore

import (
	"fmt"
	"io"

	"setagree/internal/machine"
)

// AnnotateSchedule replays a schedule against a fresh instance of the
// system and renders each step together with the object state it
// produced and the stepping process's status — the counterexample
// narration a human needs to follow the proofs' runs. The schedule must
// be applicable (e.g. a Violation witness or a recorded trace from the
// same system).
func AnnotateSchedule(w io.Writer, sys *System, schedule []Step) error {
	c, err := initialConfig(sys)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inputs: %v\n", sys.Inputs)
	for idx, step := range schedule {
		i := step.Proc
		if i < 0 || i >= len(c.Procs) {
			return fmt.Errorf("annotate: step %d: process %d out of range: %w",
				idx, i+1, machine.ErrProgram)
		}
		if !c.Live(i) {
			return fmt.Errorf("annotate: step %d: process %d is %s, cannot step: %w",
				idx, i+1, c.Procs[i].Status, machine.ErrProgram)
		}
		p, ts, err := sys.poised(c, i)
		if err != nil {
			return err
		}
		branch := step.Branch
		if branch < 0 || branch >= len(ts) {
			return fmt.Errorf("annotate: step %d: branch %d of %d: %w",
				idx, branch, len(ts), machine.ErrProgram)
		}
		m, err := sys.step(c, i, p, ts, branch)
		if err != nil {
			return err
		}
		c = c.after(m, nil)
		status := ""
		switch m.proc.Status {
		case machine.StatusDecided:
			status = fmt.Sprintf("  => p%d DECIDES %s", i+1, m.proc.Decision)
		case machine.StatusAborted:
			status = fmt.Sprintf("  => p%d ABORTS", i+1)
		case machine.StatusHalted:
			status = fmt.Sprintf("  => p%d halts", i+1)
		}
		fmt.Fprintf(w, "%3d. p%d: %s -> %s   [%s state: %s]%s\n",
			idx+1, i+1, m.Op, m.Resp,
			sys.Objects[m.Obj].Name(), m.obj.Key(), status)
	}
	return nil
}
