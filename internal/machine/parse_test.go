package machine_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"setagree/internal/machine"
	"setagree/internal/value"
)

const alg2OtherSrc = `
; Algorithm 2, non-distinguished process
loop:
  invoke r2, obj0, PROPOSE_AT, r0, r1   ; line 7
  invoke r3, obj0, DECIDE, r1           ; line 8
  jne r3, BOT, win                      ; line 9
  jmp loop
win:
  decide r3
`

func TestParseAlgorithm2(t *testing.T) {
	t.Parallel()
	p, err := machine.Parse("alg2-other", alg2OtherSrc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 5 {
		t.Fatalf("got %d instructions, want 5", len(p.Instrs))
	}
	if p.Instrs[0].Method != value.MethodProposeAt || p.Instrs[1].Method != value.MethodDecide {
		t.Fatalf("methods: %s, %s", p.Instrs[0].Method, p.Instrs[1].Method)
	}
	if p.Instrs[3].Target != 0 {
		t.Fatalf("loop target = %d", p.Instrs[3].Target)
	}
	// Parsed program runs: solo propose/decide decides the input.
	ps, err := machine.Start(p, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ps, err = machine.Resume(p, ps, value.Done) // propose acknowledged
	if err != nil {
		t.Fatal(err)
	}
	ps, err = machine.Resume(p, ps, 9) // decide returns value
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != machine.StatusDecided || ps.Decision != 9 {
		t.Fatalf("status=%s decision=%s", ps.Status, ps.Decision)
	}
}

func TestParseSentinels(t *testing.T) {
	t.Parallel()
	p, err := machine.Parse("s", "set r0, NIL\nset r1, BOT\ndecide DONE\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].A.Const != value.None || p.Instrs[1].A.Const != value.Bottom {
		t.Fatalf("sentinel constants wrong: %+v", p.Instrs)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		src  string
	}{
		{"unknown instruction", "frobnicate r0"},
		{"bad register", "set rx, 1"},
		{"bad operand count", "set r0"},
		{"unknown method", "invoke r0, obj0, FLY"},
		{"missing arg", "invoke r0, obj0, WRITE"},
		{"missing label operand", "invoke r0, obj0, DECIDE"},
		{"extra operand", "invoke r0, obj0, READ, r1"},
		{"bad object", "invoke r0, zork0, READ"},
		{"undefined jump", "jmp nowhere"},
		{"bad literal", "set r0, 1x2"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if _, err := machine.Parse("bad", tc.src, 4); !errors.Is(err, machine.ErrProgram) {
				t.Fatalf("err = %v, want ErrProgram", err)
			}
		})
	}
}

// TestParseMatchesBuilder checks that the textual form of Algorithm 2's
// retry loop and the builder-constructed program are step-equivalent.
func TestParseMatchesBuilder(t *testing.T) {
	t.Parallel()
	parsed, err := machine.Parse("alg2-other", alg2OtherSrc, 4)
	if err != nil {
		t.Fatal(err)
	}
	built := machine.NewBuilder("alg2-other", 4).
		Label("loop").
		Invoke(2, 0, value.MethodProposeAt, machine.R(0), machine.R(1)).
		Invoke(3, 0, value.MethodDecide, machine.Operand{}, machine.R(1)).
		JNe(machine.R(3), machine.C(value.Bottom), "win").
		Jmp("loop").
		Label("win").
		Decide(machine.R(3)).
		MustBuild()

	// Drive both through the same response sequence and compare keys.
	pp, err := machine.Start(parsed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := machine.Start(built, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	resps := []value.Value{value.Done, value.Bottom, value.Done, 1}
	for _, r := range resps {
		if pp.Key() != bp.Key() {
			t.Fatalf("states diverge: %s vs %s", pp.Key(), bp.Key())
		}
		pp, err = machine.Resume(parsed, pp, r)
		if err != nil {
			t.Fatal(err)
		}
		bp, err = machine.Resume(built, bp, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	if pp.Status != machine.StatusDecided || bp.Status != machine.StatusDecided {
		t.Fatalf("both should decide: %s, %s", pp.Status, bp.Status)
	}
}

// TestParseMnemonicCase assembles upper-case mnemonics to the same
// instructions as lower-case ones: "ADD" is an add and "JEQ" a jeq,
// not the sub and jlt their fall-through cases would pick.
func TestParseMnemonicCase(t *testing.T) {
	t.Parallel()
	const src = "add r2, 1, 2\njeq r2, 3, 0\njne r2, 3, 0\nsub r2, r2, 1\nhalt"
	lower, err := machine.Parse("lower", src, 4)
	if err != nil {
		t.Fatal(err)
	}
	upper, err := machine.Parse("upper", strings.ToUpper(src), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lower.Instrs, upper.Instrs) {
		t.Fatalf("upper case assembles differently:\n%s\nlower case:\n%s", upper.Disassemble(), lower.Disassemble())
	}
}
