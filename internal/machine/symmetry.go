// Symmetry support: the static analysis that justifies renaming
// process ids in interned process states, and the key-under-permutation
// encoder the symmetry-reduced explorer hashes configurations with.

package machine

import (
	"encoding/binary"
	"fmt"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// SymmetryInfo summarizes how a program constrains the admissible
// permutation group, as computed by AnalyzeSymmetry.
type SymmetryInfo struct {
	// FixedPorts lists the 1-based port labels the program hard-codes
	// as constants (PROPOSE_AT(v, 3) with an immediate 3). Any process
	// running the program touches these ports regardless of its id, so
	// an admissible id permutation must fix the owning processes.
	FixedPorts []int
	// Constants lists every immediate value the program computes with:
	// invoke arguments, set/arithmetic/comparison operands, and decide
	// operands. A value permutation must fix them all, or renaming
	// values would change the program's control flow or outputs.
	Constants []value.Value
	// ValueSafe reports that the program treats values opaquely — no
	// Add, Sub, or JLt — so any sentinel-fixing, constant-fixing value
	// bijection commutes with its local computation. Programs that do
	// arithmetic admit only the identity value permutation.
	ValueSafe bool
}

// AnalyzeSymmetry checks that p confines its process id to the role of
// a port label, which is what makes renaming ids sound: R1 (the pid
// register by the Start convention) must never be written and may be
// read only as the label operand of an invoke whose method addresses a
// port. Then permuting ids both in the pid registers and in the port
// slots of object states is a graph automorphism: the program's local
// computation never observes which id it holds.
//
// A non-nil error pinpoints the instruction that leaks the pid into
// general computation; such programs must be explored unreduced (or
// with the leaking process in its own singleton orbit).
func AnalyzeSymmetry(p *Program) (SymmetryInfo, error) {
	info := SymmetryInfo{ValueSafe: true}
	if p.NumRegs < 2 {
		// No pid register at all: trivially id-oblivious.
		return info, nil
	}
	ports := map[int]bool{}
	consts := map[value.Value]bool{}
	leak := func(i int, what string) error {
		return fmt.Errorf("%s: instr %d: %s: pid register r1 escapes port position: %w",
			p.Name, i, what, ErrProgram)
	}
	// readVal records a value-typed operand read; pid reads are leaks.
	readVal := func(i int, o Operand, what string) error {
		if o.IsReg {
			if o.Reg == RegID1 {
				return leak(i, what)
			}
			return nil
		}
		consts[o.Const] = true
		return nil
	}
	for i, in := range p.Instrs {
		switch in.Kind {
		case InstrInvoke:
			if in.Dst == RegID1 {
				return info, leak(i, "invoke response overwrites r1")
			}
			if in.Method.TakesArg() {
				if err := readVal(i, in.A, "invoke argument reads r1"); err != nil {
					return info, err
				}
			}
			if in.Method.TakesLabel() {
				switch {
				case !in.B.IsReg:
					if in.Method.LabelIsPort() {
						ports[int(in.B.Const)] = true
					}
				case in.Method.LabelIsPort():
					// A port label must be the process's own pid: a port
					// smuggled through a general register cannot be renamed
					// consistently with the id permutation.
					if in.B.Reg != RegID1 {
						return info, leak(i, "port label read from a general register")
					}
				case in.B.Reg == RegID1:
					return info, leak(i, "level label reads r1")
				default:
					// A level computed from a value-carrying register moves
					// with the value permutation while O'_n levels do not;
					// only the identity value permutation is then sound.
					info.ValueSafe = false
				}
			}
		case InstrSet:
			if in.Dst == RegID1 {
				return info, leak(i, "set overwrites r1")
			}
			if err := readVal(i, in.A, "set reads r1"); err != nil {
				return info, err
			}
		case InstrAdd, InstrSub:
			info.ValueSafe = false
			if in.Dst == RegID1 {
				return info, leak(i, "arithmetic overwrites r1")
			}
			if err := readVal(i, in.A, "arithmetic reads r1"); err != nil {
				return info, err
			}
			if err := readVal(i, in.B, "arithmetic reads r1"); err != nil {
				return info, err
			}
		case InstrJEq, InstrJNe:
			if err := readVal(i, in.A, "comparison reads r1"); err != nil {
				return info, err
			}
			if err := readVal(i, in.B, "comparison reads r1"); err != nil {
				return info, err
			}
		case InstrJLt:
			info.ValueSafe = false
			if err := readVal(i, in.A, "ordered comparison reads r1"); err != nil {
				return info, err
			}
			if err := readVal(i, in.B, "ordered comparison reads r1"); err != nil {
				return info, err
			}
		case InstrDecide:
			if err := readVal(i, in.A, "decide reads r1"); err != nil {
				return info, err
			}
		}
	}
	for l := range ports {
		info.FixedPorts = append(info.FixedPorts, l)
	}
	for v := range consts {
		info.Constants = append(info.Constants, v)
	}
	return info, nil
}

// SamePrograms reports whether two programs are interchangeable for
// symmetry purposes: identical code, register file, and name. Pointer
// identity is not required — the protocol library shares *Program
// values between processes, but synthesized systems may not.
func SamePrograms(a, b *Program) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Name != b.Name || a.NumRegs != b.NumRegs || len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return false
		}
	}
	return true
}

// AppendKeyUnder appends the binary key the permuted process state
// p·ps would produce from AppendKey. The pid register r1 (when
// present) is renamed through the port map and every other register,
// plus the decision, through the value map. The encoding is only
// faithful for programs that pass AnalyzeSymmetry — that analysis is
// what guarantees r1 holds exactly the 1-based pid in every reachable
// state, terminal states included (terminal states retain Regs).
func (ps ProcState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	var pid value.Value
	if len(ps.Regs) > int(RegID1) {
		pid = value.Value(p.Port(int(ps.Regs[RegID1])))
	}
	return ps.AppendKeyWithPid(dst, p, pid)
}

// AppendKeyWithPid is AppendKeyUnder with the pid register r1 (when
// present) rendered as pid instead of through the port map. Under any
// admissible permutation the process landing in slot j holds pid j+1,
// so blocks bound for the same slot compare alike whatever pid they
// are rendered with; orbit canonicalization renders each block once
// with a fixed pid and reuses it for every slot.
func (ps ProcState) AppendKeyWithPid(dst []byte, p spec.Perm, pid value.Value) []byte {
	dst = append(dst, byte(ps.Status))
	dst = binary.AppendUvarint(dst, uint64(ps.PC))
	dst = value.AppendKey(dst, p.Val(ps.Decision))
	dst = binary.AppendUvarint(dst, uint64(len(ps.Regs)))
	for i, r := range ps.Regs {
		if i == int(RegID1) {
			dst = value.AppendKey(dst, pid)
		} else {
			dst = value.AppendKey(dst, p.Val(r))
		}
	}
	return dst
}
