package machine_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"setagree/internal/machine"
)

// FuzzParse assembles arbitrary sources: Parse returns a program or an
// error wrapping ErrProgram and never panics, and every program it
// accepts survives Disassemble and reassembly with equal instructions.
// The seeds are the example protocols and Algorithm 2's loop.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/protocols/*.s")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed protocols (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(4))
	}
	f.Add(alg2OtherSrc, uint8(4))
	f.Fuzz(func(t *testing.T, src string, numRegs uint8) {
		p, err := machine.Parse("fuzz", src, int(numRegs))
		if err != nil {
			if !errors.Is(err, machine.ErrProgram) {
				t.Fatalf("%v does not wrap ErrProgram", err)
			}
			return
		}
		if q := reparse(t, p); !slices.Equal(p.Instrs, q.Instrs) {
			t.Fatalf("reassembly changed the program:\n%s\nreassembled:\n%s", p.Disassemble(), q.Disassemble())
		}
	})
}
