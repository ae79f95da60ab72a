package machine

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"setagree/internal/value"
)

// Status is the lifecycle phase of a process.
type Status uint8

// Process lifecycle phases.
const (
	// StatusPoised means the process is about to perform a shared-memory
	// step (the Invoke reachable from its program counter).
	StatusPoised Status = iota + 1
	// StatusDecided means the process has decided Decision.
	StatusDecided
	// StatusAborted means the process has aborted (n-DAC distinguished
	// process only).
	StatusAborted
	// StatusHalted means the process stopped without deciding.
	StatusHalted
	// StatusCrashed means the process was crashed by the adversary and
	// takes no further steps.
	StatusCrashed
)

// String returns the phase name.
func (s Status) String() string {
	switch s {
	case StatusPoised:
		return "poised"
	case StatusDecided:
		return "decided"
	case StatusAborted:
		return "aborted"
	case StatusHalted:
		return "halted"
	case StatusCrashed:
		return "crashed"
	default:
		return "status(" + strconv.Itoa(int(s)) + ")"
	}
}

// Terminal reports whether the process takes no further steps.
func (s Status) Terminal() bool { return s != StatusPoised }

// Poise describes the shared-memory step a poised process is about to
// take: operation Op on object index Obj, response to register Dst.
type Poise struct {
	// Op is the fully evaluated operation (operands resolved).
	Op value.Op
	// Obj is the shared-object index.
	Obj int
	// Dst receives the response.
	Dst RegID
}

// ProcState is an immutable snapshot of one process. Resume returns new
// snapshots; callers never mutate Regs.
type ProcState struct {
	// Regs is the register file.
	Regs []value.Value
	// Decision is the decided value when Status is StatusDecided.
	Decision value.Value
	// PC indexes the Invoke instruction the process is poised at.
	PC int
	// Status is the lifecycle phase.
	Status Status
}

// Key returns a canonical encoding of the process state for
// configuration hashing.
func (ps ProcState) Key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(ps.Status)))
	b.WriteByte('@')
	b.WriteString(strconv.Itoa(ps.PC))
	b.WriteByte('=')
	b.WriteString(strconv.FormatInt(int64(ps.Decision), 36))
	for _, r := range ps.Regs {
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(r), 36))
	}
	return b.String()
}

// AppendKey appends a compact, self-delimiting binary encoding of the
// process state to dst, with the same canonicity contract as Key: the
// status byte, the PC, the decision, the register count and the
// registers, every value as its value.AppendKey code. The
// model checker interns configurations through these bytes, so this is
// the allocation-free hot-path twin of Key (which remains the
// human-readable rendering).
func (ps ProcState) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(ps.Status))
	dst = binary.AppendUvarint(dst, uint64(ps.PC))
	dst = value.AppendKey(dst, ps.Decision)
	dst = binary.AppendUvarint(dst, uint64(len(ps.Regs)))
	for _, r := range ps.Regs {
		dst = value.AppendKey(dst, r)
	}
	return dst
}

func (ps ProcState) cloneRegs() []value.Value {
	regs := make([]value.Value, len(ps.Regs))
	copy(regs, ps.Regs)
	return regs
}

func eval(regs []value.Value, o Operand) value.Value {
	if o.IsReg {
		return regs[o.Reg]
	}
	return o.Const
}

// Start initializes a process: the register file is zeroed except
// R0 = input and R1 = pid (1-based), then local instructions run until
// the process is poised or terminated.
func Start(p *Program, pid int, input value.Value) (ProcState, error) {
	regs := make([]value.Value, p.NumRegs)
	regs[RegInput] = input
	if p.NumRegs > 1 {
		regs[RegID1] = value.Value(pid)
	}
	ps := ProcState{Regs: regs, Decision: value.None, PC: 0, Status: StatusPoised}
	return normalize(p, ps)
}

// Resume feeds the response of the shared-memory step the process was
// poised at, then advances to the next poise point or terminal status.
func Resume(p *Program, ps ProcState, resp value.Value) (ProcState, error) {
	if ps.Status != StatusPoised {
		return ps, fmt.Errorf("%s: resume of %s process: %w", p.Name, ps.Status, ErrProgram)
	}
	in := p.Instrs[ps.PC]
	if in.Kind != InstrInvoke {
		return ps, fmt.Errorf("%s: pc %d not an invoke: %w", p.Name, ps.PC, ErrProgram)
	}
	countStep()
	next := ps
	next.Regs = ps.cloneRegs()
	next.Regs[in.Dst] = resp
	next.PC++
	return normalize(p, next)
}

// Poised returns the pending shared-memory step of a poised process.
func Poised(p *Program, ps ProcState) (Poise, bool) {
	if ps.Status != StatusPoised {
		return Poise{}, false
	}
	in := p.Instrs[ps.PC]
	op := value.Op{Method: in.Method}
	if in.Method.TakesArg() {
		op.Arg = eval(ps.Regs, in.A)
	}
	if in.Method.TakesLabel() {
		op.Label = int(eval(ps.Regs, in.B))
	}
	return Poise{Op: op, Obj: in.Obj, Dst: in.Dst}, true
}

// Crash marks the process as crashed; it takes no further steps.
func Crash(ps ProcState) ProcState {
	ps.Status = StatusCrashed
	return ps
}

// normalize executes local instructions until the process is poised at
// an Invoke or terminates. Falling off the end of the program halts the
// process. Local writes go to ps.Regs in place, so the caller must own
// the register file: Start and Resume each pass a fresh one.
func normalize(p *Program, ps ProcState) (ProcState, error) {
	regs := ps.Regs
	pc := ps.PC
	for steps := 0; ; steps++ {
		if steps > MaxLocalSteps {
			return ps, fmt.Errorf("%s: local loop without shared step at pc %d: %w", p.Name, ps.PC, ErrProgram)
		}
		if pc < 0 || pc >= len(p.Instrs) {
			return ProcState{Regs: regs, Decision: value.None, PC: pc, Status: StatusHalted}, nil
		}
		in := p.Instrs[pc]
		switch in.Kind {
		case InstrInvoke:
			return ProcState{Regs: regs, Decision: value.None, PC: pc, Status: StatusPoised}, nil
		case InstrSet:
			regs[in.Dst] = eval(regs, in.A)
			pc++
		case InstrAdd:
			regs[in.Dst] = eval(regs, in.A) + eval(regs, in.B)
			pc++
		case InstrSub:
			regs[in.Dst] = eval(regs, in.A) - eval(regs, in.B)
			pc++
		case InstrJmp:
			pc = in.Target
		case InstrJEq:
			if eval(regs, in.A) == eval(regs, in.B) {
				pc = in.Target
			} else {
				pc++
			}
		case InstrJNe:
			if eval(regs, in.A) != eval(regs, in.B) {
				pc = in.Target
			} else {
				pc++
			}
		case InstrJLt:
			if eval(regs, in.A) < eval(regs, in.B) {
				pc = in.Target
			} else {
				pc++
			}
		case InstrDecide:
			return ProcState{Regs: regs, Decision: eval(regs, in.A), PC: pc, Status: StatusDecided}, nil
		case InstrAbort:
			return ProcState{Regs: regs, Decision: value.None, PC: pc, Status: StatusAborted}, nil
		case InstrHalt:
			return ProcState{Regs: regs, Decision: value.None, PC: pc, Status: StatusHalted}, nil
		default:
			return ps, fmt.Errorf("%s: unknown instruction kind %d at pc %d: %w", p.Name, in.Kind, pc, ErrProgram)
		}
	}
}
