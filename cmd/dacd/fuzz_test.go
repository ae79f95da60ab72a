package main

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"setagree/internal/explore"
)

// exploreSeeds are explore job specs the dacd tests and the example
// assembly protocols submit, one per named protocol besides.
func exploreSeeds() []string {
	seeds := []string{
		`{"protocol":"alg2","n":3,"p":1}`,
		`{"protocol":"alg2","n":4,"p":1,"workers":1,"heartbeat_every":64}`,
		`{"protocol":"alg2","n":3,"p":1,"dot":true,"heartbeat_every":64}`,
		`{"protocol":"alg2","n":3,"p":1,"valency":true}`,
		`{"protocol":"alg2","n":3,"p":1,"checkpoint_every":1,"pace_ms":300}`,
		`{"protocol":"alg2","n":5,"store":true,"store_budget":"1GB"}`,
		`{"protocol":"alg2","n":4,"symmetry":"ids"}`,
		`{"protocol":"partition-on","k":2,"n":2,"symmetry":"values"}`,
		`{"protocol":"kset-sa","n":3,"k":2,"procs":4,"inputs":"1,2,3,4"}`,
		`{"asm":"../../examples/protocols/consensus-direct.s","objects":"consensus:2","task":"consensus","procs":2}`,
		`{"asm":"../../examples/protocols/kset-2sa.s","objects":"2sa","task":"kset:2","procs":3}`,
		`{"asm":"../../examples/protocols/pac-retry.s","objects":"pac:2","task":"dac","procs":2}`,
	}
	for _, name := range []string{"alg2-upset", "alg2-pacm", "consensus-pacm", "consensus-direct",
		"consensus-queue", "consensus-tas", "partition", "kset-oprime", "kset-oprime-base",
		"chaudhuri", "naive-2sa", "oversub", "dac-attempt"} {
		seeds = append(seeds, `{"protocol":"`+name+`"}`)
	}
	return seeds
}

// FuzzExploreSpec decodes arbitrary explore job specs and builds the
// instance each names, as a job does before it starts its check: the
// result is an error or a system the explorer accepts the shape of
// (programs, inputs and the task agree on a process count within
// explore.MaxProcs), never a panic. No check runs. A spec naming an
// assembly file reads it, so asm specs are fuzzed only over the
// example protocols.
func FuzzExploreSpec(f *testing.F) {
	asm := map[string]bool{}
	for _, seed := range exploreSeeds() {
		var sp exploreSpec
		if err := json.Unmarshal([]byte(seed), &sp); err != nil {
			f.Fatalf("seed %s: %v", seed, err)
		}
		if sp.Asm != "" {
			asm[sp.Asm] = true
		}
		f.Add([]byte(seed))
	}
	paths, err := filepath.Glob("../../examples/protocols/*.s")
	if err != nil || len(paths) == 0 {
		f.Fatalf("example protocols: %v, %d files", err, len(paths))
	}
	for _, p := range paths {
		asm[p] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var peek exploreSpec
		if json.Unmarshal(data, &peek) == nil && peek.Asm != "" && !asm[peek.Asm] {
			return
		}
		_, _, sys, tsk, err := exploreInstance(data)
		if err != nil {
			return
		}
		n := len(sys.Programs)
		if n < 1 || n > explore.MaxProcs || len(sys.Inputs) != n || tsk.Procs() != n {
			t.Fatalf("accepted a system of %d programs and %d inputs for a %d-process task",
				n, len(sys.Inputs), tsk.Procs())
		}
		for i, p := range sys.Programs {
			if p == nil {
				t.Fatalf("program %d is nil", i)
			}
		}
	})
}
