// Package protobuild turns a declarative instance description — a
// named protocol (or an assembly file) plus its size parameters and
// input vector — into a runnable (Protocol, Task, inputs) triple. It
// is the shared front half of every tool that model-checks or
// simulates an instance: cmd/explore populates a Config from flags,
// cmd/dacd unmarshals one from a submitted job's JSON spec (the
// field tags below are that wire format), and both get identical
// construction and defaulting semantics.
package protobuild

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"setagree/cmd/internal/specname"
	"setagree/internal/core"
	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// Config describes one protocol instance. The zero value of each size
// parameter means "use the historical default" (N 3, M 2, K 2, P 1),
// so a JSON spec only states what it cares about.
type Config struct {
	// Protocol is a named protocol: alg2, alg2-upset, alg2-pacm,
	// consensus-pacm, consensus-direct, consensus-queue, consensus-tas,
	// partition, partition-on, kset-sa, kset-oprime, kset-oprime-base,
	// chaudhuri, naive-2sa, oversub, dac-attempt.
	Protocol string `json:"protocol,omitempty"`
	// Asm is an assembly file path: one symmetric program for all
	// processes (requires Objects, Task, Procs).
	Asm string `json:"asm,omitempty"`
	// Objects is the object list for Asm, e.g. "consensus:2,register".
	Objects string `json:"objects,omitempty"`
	// Task is the task for Asm: consensus | kset:K | dac.
	Task string `json:"task,omitempty"`
	// Inputs is the comma-separated input vector ("" = the proofs'
	// canonical default for the task).
	Inputs string `json:"inputs,omitempty"`
	// N is the n parameter (processes / PAC labels; default 3).
	N int `json:"n,omitempty"`
	// M is the consensus width (default 2).
	M int `json:"m,omitempty"`
	// K is the agreement bound (default 2).
	K int `json:"k,omitempty"`
	// P is the distinguished process, 1-based (default 1).
	P int `json:"p,omitempty"`
	// Procs overrides the process count where the protocol allows it.
	Procs int `json:"procs,omitempty"`
}

func (c *Config) defaults() Config {
	d := *c
	if d.N == 0 {
		d.N = 3
	}
	if d.M == 0 {
		d.M = 2
	}
	if d.K == 0 {
		d.K = 2
	}
	if d.P == 0 {
		d.P = 1
	}
	return d
}

// checkSizes rejects size parameters no instance can use: N, M, K and
// P must lie in [1, explore.MaxProcs] once defaulted, and Procs in
// [0, explore.MaxProcs]. A negative size would panic the protocol
// builders, and a larger one names more processes than the explorer
// accepts.
func (d *Config) checkSizes() error {
	for _, p := range []struct {
		name string
		v    int
	}{{"n", d.N}, {"m", d.M}, {"k", d.K}, {"p", d.P}} {
		if p.v < 1 || p.v > explore.MaxProcs {
			return fmt.Errorf("%s = %d, want 1 to %d", p.name, p.v, explore.MaxProcs)
		}
	}
	if d.Procs < 0 || d.Procs > explore.MaxProcs {
		return fmt.Errorf("procs = %d, want 1 to %d (0 for the default)", d.Procs, explore.MaxProcs)
	}
	return nil
}

// Build materializes the instance: the protocol, its task, and the
// input vector (parsed from Inputs, or the task-appropriate default).
func (c *Config) Build() (programs.Protocol, task.Task, []value.Value, error) {
	d := c.defaults()
	if err := d.checkSizes(); err != nil {
		return programs.Protocol{}, nil, nil, err
	}
	if d.Asm != "" {
		return d.buildAsm()
	}
	var (
		prot programs.Protocol
		tsk  task.Task
	)
	switch d.Protocol {
	case "alg2", "alg2-upset", "alg2-pacm":
		// The builders index the distinguished process's program.
		if d.P > d.N {
			return programs.Protocol{}, nil, nil, fmt.Errorf("p = %d, but %s has %d processes", d.P, d.Protocol, d.N)
		}
	}
	switch d.Protocol {
	case "alg2":
		prot, tsk = programs.Algorithm2(d.N, d.P), task.DAC{N: d.N, P: d.P - 1}
	case "alg2-upset":
		prot, tsk = programs.UpsettingAlgorithm2(d.N, d.P), task.DAC{N: d.N, P: d.P - 1}
	case "consensus-pacm":
		procs := orDefault(d.Procs, d.M)
		prot, tsk = programs.ConsensusFromPACM(d.N, d.M, procs), task.Consensus{N: procs}
	case "consensus-direct":
		procs := orDefault(d.Procs, d.M)
		prot, tsk = programs.ConsensusFromObject(d.M, procs), task.Consensus{N: procs}
	case "partition":
		prot, tsk = programs.Partition(d.K, d.M), task.KSetAgreement{N: d.K * d.M, K: d.K}
	case "partition-on":
		prot, tsk = programs.PartitionObjectO(d.K, d.N), task.KSetAgreement{N: d.K * d.N, K: d.K}
	case "kset-sa":
		procs := orDefault(d.Procs, d.N)
		prot, tsk = programs.KSetFromSA(d.N, d.K, procs), task.KSetAgreement{N: procs, K: d.K}
	case "kset-oprime":
		procs := orDefault(d.Procs, d.K*d.N)
		prot = programs.KSetFromOPrime(core.NewOPrime(d.N, nil), d.K, procs)
		tsk = task.KSetAgreement{N: procs, K: d.K}
	case "kset-oprime-base":
		procs := orDefault(d.Procs, d.K*d.N)
		prot, tsk = programs.KSetFromOPrimeBase(d.N, d.K, procs), task.KSetAgreement{N: procs, K: d.K}
	case "naive-2sa":
		procs := orDefault(d.Procs, 2)
		prot, tsk = programs.NaiveTwoSAConsensus(procs), task.Consensus{N: procs}
	case "oversub":
		prot, tsk = programs.OverSubscribedConsensus(d.M), task.Consensus{N: d.M + 1}
	case "dac-attempt":
		prot, tsk = programs.DACFromConsensusAndTwoSA(d.N, d.P), task.DAC{N: d.N + 1, P: d.P - 1}
	case "chaudhuri":
		prot = programs.ChaudhuriKSet(d.N, d.K)
		tsk = task.ResilientKSet{N: d.N, K: d.K, F: d.K - 1}
	case "alg2-pacm":
		prot, tsk = programs.Algorithm2ViaPACM(d.N, d.M, d.P), task.DAC{N: d.N, P: d.P - 1}
	case "consensus-queue":
		prot, tsk = programs.ConsensusFromQueue(), task.Consensus{N: 2}
	case "consensus-tas":
		prot, tsk = programs.ConsensusFromTAS(), task.Consensus{N: 2}
	case "":
		return programs.Protocol{}, nil, nil, fmt.Errorf("a protocol name or an asm file is required")
	default:
		return programs.Protocol{}, nil, nil, fmt.Errorf("unknown protocol %q", d.Protocol)
	}
	if prot.Procs() > explore.MaxProcs {
		return programs.Protocol{}, nil, nil, fmt.Errorf("%s has %d processes, more than %d",
			d.Protocol, prot.Procs(), explore.MaxProcs)
	}
	inputs, err := ParseInputs(d.Inputs, prot.Procs(), tsk)
	if err != nil {
		return programs.Protocol{}, nil, nil, err
	}
	return prot, tsk, inputs, nil
}

func (c *Config) buildAsm() (programs.Protocol, task.Task, []value.Value, error) {
	if c.Objects == "" || c.Task == "" || c.Procs == 0 {
		return programs.Protocol{}, nil, nil, fmt.Errorf("an asm instance needs objects, a task, and a process count")
	}
	src, err := os.ReadFile(c.Asm)
	if err != nil {
		return programs.Protocol{}, nil, nil, err
	}
	prog, err := machine.Parse(c.Asm, string(src), 16)
	if err != nil {
		return programs.Protocol{}, nil, nil, err
	}
	var objs []spec.Spec
	for _, name := range strings.Split(c.Objects, ",") {
		sp, err := specname.Parse(strings.TrimSpace(name))
		if err != nil {
			return programs.Protocol{}, nil, nil, err
		}
		objs = append(objs, sp)
	}
	progs := make([]*machine.Program, c.Procs)
	for i := range progs {
		progs[i] = prog
	}
	prot := programs.Protocol{Name: "asm:" + c.Asm, Programs: progs, Objects: objs}

	var tsk task.Task
	switch {
	case c.Task == "consensus":
		tsk = task.Consensus{N: c.Procs}
	case c.Task == "dac":
		tsk = task.DAC{N: c.Procs, P: c.P - 1}
	case strings.HasPrefix(c.Task, "kset:"):
		k, err := strconv.Atoi(strings.TrimPrefix(c.Task, "kset:"))
		if err != nil {
			return programs.Protocol{}, nil, nil, fmt.Errorf("bad task %q", c.Task)
		}
		tsk = task.KSetAgreement{N: c.Procs, K: k}
	default:
		return programs.Protocol{}, nil, nil, fmt.Errorf("unknown task %q", c.Task)
	}
	inputs, err := ParseInputs(c.Inputs, c.Procs, tsk)
	if err != nil {
		return programs.Protocol{}, nil, nil, err
	}
	return prot, tsk, inputs, nil
}

// ParseInputs parses a comma-separated input vector, defaulting to the
// proofs' canonical vectors: 1 for the distinguished/first process, 0
// elsewhere for binary tasks; distinct values for k-set agreement.
func ParseInputs(raw string, procs int, tsk task.Task) ([]value.Value, error) {
	d := 0
	if dt, ok := tsk.(task.DAC); ok {
		d = dt.P
	}
	if d < 0 || d >= procs {
		return nil, fmt.Errorf("distinguished process %d outside processes 1 to %d", d+1, procs)
	}
	if raw != "" {
		parts := strings.Split(raw, ",")
		if len(parts) != procs {
			return nil, fmt.Errorf("%d inputs for %d processes", len(parts), procs)
		}
		out := make([]value.Value, procs)
		for i, part := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad input %q", part)
			}
			out[i] = value.Value(v)
		}
		return out, nil
	}
	out := make([]value.Value, procs)
	wantDistinct := false
	if kt, ok := tsk.(task.KSetAgreement); ok && kt.K >= 2 {
		wantDistinct = true
	}
	if rt, ok := tsk.(task.ResilientKSet); ok && rt.K >= 2 {
		wantDistinct = true
	}
	if wantDistinct {
		for i := range out {
			out[i] = value.Value(10 + i)
		}
		return out, nil
	}
	out[d] = 1
	return out, nil
}

// orDefault returns v if nonzero, else fallback.
func orDefault(v, fallback int) int {
	if v != 0 {
		return v
	}
	return fallback
}
