package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"setagree/internal/history"
)

const goodHistory = `{
  "events": [
    {"proc": 1, "obj": 0, "method": 4, "arg": 5, "label": 1, "resp": -9223372036854775806, "inv": 1, "ret": 2},
    {"proc": 1, "obj": 0, "method": 5, "arg": 0, "label": 1, "resp": 5, "inv": 3, "ret": 4}
  ]
}`

const staleHistory = `{
  "events": [
    {"proc": 1, "obj": 0, "method": 2, "arg": 5, "label": 0, "resp": -9223372036854775806, "inv": 1, "ret": 2},
    {"proc": 2, "obj": 0, "method": 1, "arg": 0, "label": 0, "resp": -9223372036854775808, "inv": 3, "ret": 4}
  ]
}`

func TestLinearizablePAC(t *testing.T) {
	t.Parallel()
	var out, errOut bytes.Buffer
	code := run([]string{"-spec", "pac:2"}, strings.NewReader(goodHistory), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "linearizable w.r.t. 2-PAC") {
		t.Errorf("output: %s", out.String())
	}
}

func TestNotLinearizableRegister(t *testing.T) {
	t.Parallel()
	// A read strictly after a completed write returns NIL: not
	// linearizable.
	var out, errOut bytes.Buffer
	code := run([]string{"-spec", "register"}, strings.NewReader(staleHistory), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "NOT linearizable") {
		t.Errorf("output: %s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	t.Parallel()
	var out, errOut bytes.Buffer
	if code := run(nil, strings.NewReader(goodHistory), &out, &errOut); code != 2 {
		t.Fatalf("missing -spec: exit %d", code)
	}
	if code := run([]string{"-spec", "warpdrive"}, strings.NewReader(goodHistory), &out, &errOut); code != 2 {
		t.Fatalf("unknown spec: exit %d", code)
	}
	if code := run([]string{"-spec", "pac:2"}, strings.NewReader("{bad json"), &out, &errOut); code != 2 {
		t.Fatalf("bad json: exit %d", code)
	}
	if code := run([]string{"-spec", "pac:2", "-obj", "7"}, strings.NewReader(goodHistory), &out, &errOut); code != 2 {
		t.Fatalf("no matching object: exit %d", code)
	}
}

// fuzzSpecs are the specs FuzzHistory checks histories against.
var fuzzSpecs = []string{"pac:2", "consensus:2", "2sa", "register", "queue", "tas"}

// FuzzHistory runs lincheck on arbitrary history bytes against a spec
// from fuzzSpecs. The exit status is 0, 1 or 2 and nothing panics.
// Histories of more than 10 events are skipped to keep the Wing–Gong
// search small.
func FuzzHistory(f *testing.F) {
	for i := range fuzzSpecs {
		f.Add(uint8(i), []byte(goodHistory))
		f.Add(uint8(i), []byte(staleHistory))
	}
	f.Add(uint8(0), []byte("{bad json"))
	f.Fuzz(func(t *testing.T, specIdx uint8, data []byte) {
		if h, err := history.ReadJSON(bytes.NewReader(data)); err == nil && len(h.Events) > 10 {
			t.Skip("history too long for a bounded search")
		}
		sp := fuzzSpecs[int(specIdx)%len(fuzzSpecs)]
		if code := run([]string{"-spec", sp}, bytes.NewReader(data), io.Discard, io.Discard); code < 0 || code > 2 {
			t.Fatalf("spec %s: exit %d, want 0, 1 or 2", sp, code)
		}
	})
}
