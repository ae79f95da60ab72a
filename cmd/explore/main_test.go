package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestAlg2Solved(t *testing.T) {
	t.Parallel()
	code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-valency")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"SOLVED", "bivalent", "critical", "3-PAC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNaiveTwoSARefuted(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-protocol", "naive-2sa", "-inputs", "0,1", "-witness")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REFUTED") {
		t.Errorf("output: %s", out)
	}
	if !strings.Contains(out, "PROPOSE") {
		t.Errorf("witness schedule not printed: %s", out)
	}
}

func TestOversubRefutedWithCycle(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-protocol", "oversub", "-m", "2", "-witness")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "cycle (repeats forever)") {
		t.Errorf("cycle witness missing: %s", out)
	}
}

func TestNamedProtocols(t *testing.T) {
	t.Parallel()
	solved := [][]string{
		{"-protocol", "consensus-pacm", "-n", "3", "-m", "2"},
		{"-protocol", "consensus-direct", "-m", "2"},
		{"-protocol", "partition", "-k", "2", "-m", "2"},
		{"-protocol", "partition-on", "-k", "2", "-n", "2"},
		{"-protocol", "kset-sa", "-n", "4", "-k", "2", "-procs", "3"},
		{"-protocol", "kset-oprime", "-n", "2", "-k", "2"},
		{"-protocol", "kset-oprime-base", "-n", "2", "-k", "2"},
	}
	for _, args := range solved {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			t.Parallel()
			code, out, errOut := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
			}
		})
	}
	refuted := [][]string{
		{"-protocol", "alg2-upset", "-n", "3", "-p", "1"},
		{"-protocol", "dac-attempt", "-n", "2", "-p", "1", "-inputs", "1,0,0"},
	}
	for _, args := range refuted {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			t.Parallel()
			code, _, _ := runCLI(t, args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
		})
	}
}

// TestStateLimitInconclusive: hitting -max-states reports the partial
// exploration with a dedicated verdict and exit code instead of a bare
// error, and the printed partial counts are self-consistent.
func TestStateLimitInconclusive(t *testing.T) {
	t.Parallel()
	code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-max-states", "10")
	if code != 3 {
		t.Fatalf("exit %d, want 3\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "INCONCLUSIVE") {
		t.Errorf("verdict missing: %s", out)
	}
	if !strings.Contains(out, "11 configurations") {
		t.Errorf("partial state count missing (want 11 = cap+1): %s", out)
	}
	if strings.Contains(out, " 0 configurations") {
		t.Errorf("partial report lost its state count: %s", out)
	}
}

func TestAsmProtocol(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	src := "invoke r2, obj0, PROPOSE, r0\ndecide r2\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t,
		"-asm", path, "-objects", "consensus:2", "-task", "consensus", "-procs", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "SOLVED") {
		t.Errorf("output: %s", out)
	}

	// The same program run by 3 processes over a 2-consensus object is
	// refuted (the third response is ⊥).
	code, out, _ = runCLI(t,
		"-asm", path, "-objects", "consensus:2", "-task", "consensus", "-procs", "3")
	if code != 1 {
		t.Fatalf("3 procs: exit %d\n%s", code, out)
	}
}

func TestAsmKSetTask(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	src := "invoke r2, obj0, PROPOSE, r0\ndecide r2\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t,
		"-asm", path, "-objects", "2sa", "-task", "kset:2", "-procs", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		nil, // neither -protocol nor -asm
		{"-protocol", "warp"},
		{"-protocol", "alg2", "-n", "3", "-inputs", "1,0"},
		{"-asm", "/nonexistent.s", "-objects", "register", "-task", "consensus", "-procs", "2"},
		{"-asm", "x", "-task", "consensus"}, // missing -objects/-procs
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestAdversaryFlag(t *testing.T) {
	t.Parallel()
	// withoutElapsed drops the wall-time line, the only one that differs
	// between two runs.
	withoutElapsed := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "elapsed:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	var outs [2]string
	for k := range outs {
		code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-adversary")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut)
		}
		if !strings.Contains(out, "BIVALENT FOREVER") {
			t.Errorf("adversary output missing:\n%s", out)
		}
		outs[k] = withoutElapsed(out)
	}
	if outs[0] != outs[1] {
		t.Errorf("two -adversary runs differ:\n%s\nthen\n%s", outs[0], outs[1])
	}
	// Naive 2-SA consensus has a bivalent region with neither a cycle
	// nor a critical configuration: a typed error, exit 2.
	code, _, errOut := runCLI(t, "-protocol", "naive-2sa", "-n", "3", "-procs", "3", "-inputs", "0,1,1", "-adversary")
	const wantErr = "explore: adversary: explore: bivalent region has neither cycle nor critical configuration: " +
		"explore: adversarial schedule requires valency analysis\n"
	if code != 2 || errOut != wantErr {
		t.Errorf("naive-2sa: exit %d, stderr %q; want exit 2, stderr %q", code, errOut, wantErr)
	}
	code, out, _ := runCLI(t, "-protocol", "consensus-pacm", "-n", "3", "-m", "2", "-inputs", "0,1", "-adversary")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "critical configuration") {
		t.Errorf("adversary output missing:\n%s", out)
	}
}

// TestShippedProtocolSamples drives the .s files under
// examples/protocols through the -asm path and pins their documented
// verdicts.
func TestShippedProtocolSamples(t *testing.T) {
	t.Parallel()
	base := "../../examples/protocols/"
	cases := []struct {
		args []string
		exit int
	}{
		{[]string{"-asm", base + "consensus-direct.s", "-objects", "consensus:2", "-task", "consensus", "-procs", "2"}, 0},
		{[]string{"-asm", base + "consensus-direct.s", "-objects", "consensus:2", "-task", "consensus", "-procs", "3"}, 1},
		{[]string{"-asm", base + "kset-2sa.s", "-objects", "2sa", "-task", "kset:2", "-procs", "4"}, 0},
		{[]string{"-asm", base + "pac-retry.s", "-objects", "pac:3", "-task", "consensus", "-procs", "3"}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			code, out, errOut := runCLI(t, tc.args...)
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.exit, out, errOut)
			}
		})
	}
}

func TestAnnotateFlag(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-protocol", "naive-2sa", "-inputs", "0,1", "-annotate")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "2-SA state:") || !strings.Contains(out, "DECIDES") {
		t.Errorf("annotated output missing:\n%s", out)
	}
}

func TestDotFlag(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "g.dot")
	code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "2", "-p", "1", "-valency", "-dot", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wrote configuration graph") {
		t.Errorf("missing confirmation: %s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph configurations") {
		t.Error("DOT file malformed")
	}
}
