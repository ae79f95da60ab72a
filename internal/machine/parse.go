package machine

import (
	"fmt"
	"strconv"
	"strings"

	"setagree/internal/value"
)

// Parse assembles a textual program. Syntax, one instruction per line:
//
//	; comment (also after instructions)
//	label:
//	  set   rD, <opnd>
//	  add   rD, <opnd>, <opnd>
//	  sub   rD, <opnd>, <opnd>
//	  invoke rD, obj<k>, METHOD[, <arg>][, <label>]
//	  jmp   target
//	  jeq   <opnd>, <opnd>, target
//	  jne   <opnd>, <opnd>, target
//	  jlt   <opnd>, <opnd>, target
//	  decide <opnd>
//	  abort
//	  halt
//
// Operands are registers (r0, r1, ...), decimal integers, or the
// sentinel names NIL, BOT, and DONE. Methods are the value.Method names
// (PROPOSE, PROPOSE_AT, DECIDE, READ, WRITE, PROPOSE_C, PROPOSE_P,
// DECIDE_P, PROPOSE_K).
func Parse(name string, src string, numRegs int) (*Program, error) {
	b := NewBuilder(name, numRegs)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			b.Label(strings.TrimSpace(strings.TrimSuffix(line, ":")))
			continue
		}
		op, rest, _ := strings.Cut(line, " ")
		args := splitArgs(rest)
		if err := parseInstr(b, op, args); err != nil {
			return nil, fmt.Errorf("%s: line %d: %q: %w", name, lineNo+1, raw, err)
		}
	}
	return b.Build()
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInstr(b *Builder, op string, args []string) error {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d: %w", op, n, len(args), ErrProgram)
		}
		return nil
	}
	switch op = strings.ToLower(op); op {
	case "set":
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		b.Set(d, a)
	case "add", "sub":
		if err := need(3); err != nil {
			return err
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		bb, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		if op == "add" {
			b.Add(d, a, bb)
		} else {
			b.Sub(d, a, bb)
		}
	case "invoke":
		if len(args) < 3 || len(args) > 5 {
			return fmt.Errorf("invoke wants 3-5 operands, got %d: %w", len(args), ErrProgram)
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		obj, err := parseObj(args[1])
		if err != nil {
			return err
		}
		m, err := parseMethod(args[2])
		if err != nil {
			return err
		}
		rest := args[3:]
		var arg, label Operand
		if m.TakesArg() {
			if len(rest) == 0 {
				return fmt.Errorf("%s needs a value operand: %w", m, ErrProgram)
			}
			if arg, err = parseOperand(rest[0]); err != nil {
				return err
			}
			rest = rest[1:]
		}
		if m.TakesLabel() {
			if len(rest) == 0 {
				return fmt.Errorf("%s needs a label operand: %w", m, ErrProgram)
			}
			if label, err = parseOperand(rest[0]); err != nil {
				return err
			}
			rest = rest[1:]
		}
		if len(rest) != 0 {
			return fmt.Errorf("%s: too many operands: %w", m, ErrProgram)
		}
		b.Invoke(d, obj, m, arg, label)
	case "jmp":
		if err := need(1); err != nil {
			return err
		}
		b.Jmp(args[0])
	case "jeq", "jne", "jlt":
		if err := need(3); err != nil {
			return err
		}
		a, err := parseOperand(args[0])
		if err != nil {
			return err
		}
		bb, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		switch op {
		case "jeq":
			b.JEq(a, bb, args[2])
		case "jne":
			b.JNe(a, bb, args[2])
		default:
			b.JLt(a, bb, args[2])
		}
	case "decide":
		if err := need(1); err != nil {
			return err
		}
		a, err := parseOperand(args[0])
		if err != nil {
			return err
		}
		b.Decide(a)
	case "abort":
		if err := need(0); err != nil {
			return err
		}
		b.Abort()
	case "halt":
		if err := need(0); err != nil {
			return err
		}
		b.Halt()
	default:
		return fmt.Errorf("unknown instruction %q: %w", op, ErrProgram)
	}
	return nil
}

func parseReg(s string) (RegID, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("expected register, got %q: %w", s, ErrProgram)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 63 {
		return 0, fmt.Errorf("bad register %q: %w", s, ErrProgram)
	}
	return RegID(n), nil
}

func parseObj(s string) (int, error) {
	t := strings.ToLower(s)
	if !strings.HasPrefix(t, "obj") {
		return 0, fmt.Errorf("expected objN, got %q: %w", s, ErrProgram)
	}
	n, err := strconv.Atoi(t[3:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad object index %q: %w", s, ErrProgram)
	}
	return n, nil
}

func parseMethod(s string) (value.Method, error) {
	for m := value.MethodRead; m.Valid(); m++ {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q: %w", s, ErrProgram)
}

func parseOperand(s string) (Operand, error) {
	switch strings.ToUpper(s) {
	case "NIL":
		return C(value.None), nil
	case "BOT", "BOTTOM", "⊥":
		return C(value.Bottom), nil
	case "DONE":
		return C(value.Done), nil
	}
	if s != "" && (s[0] == 'r' || s[0] == 'R') {
		if _, err := strconv.Atoi(s[1:]); err == nil {
			r, err := parseReg(s)
			if err != nil {
				return Operand{}, err
			}
			return R(r), nil
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Operand{}, fmt.Errorf("bad operand %q: %w", s, ErrProgram)
	}
	return C(value.Value(n)), nil
}
