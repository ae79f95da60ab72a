package explore_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"setagree/internal/core"
	"setagree/internal/explore"
	"setagree/internal/programs"
	"setagree/internal/task"
	"setagree/internal/value"
)

// tenByteVarint returns the offset of the first ten-byte varint in b,
// read as a run of varints, or -1. Keys and edge records are varints
// and raw bytes below 0x80 (status, method, upset flags), which read as
// one-byte varints, so the scan is exact. Only a value written as a
// plain zigzag varint reaches ten bytes in them: a sentinel.
func tenByteVarint(b []byte) int {
	run := 0
	for i, x := range b {
		if x >= 0x80 {
			run++
			continue
		}
		if run == binary.MaxVarintLen64-1 {
			return i - run
		}
		run = 0
	}
	return -1
}

// TestRecordsUseValueCodes walks every interned key and every edge
// record of alg2 n=4 and of systems over the (n,m)-PAC and both O'_n
// constructions, whose states and responses carry NIL, ⊥ and done,
// with symmetry off and ids. Every value in them is a value.KeyUint
// code, so none takes ten bytes; an encoder left on zigzag varints
// writes a sentinel in ten and fails here.
func TestRecordsUseValueCodes(t *testing.T) {
	t.Parallel()
	if at := tenByteVarint(binary.AppendVarint([]byte{0, 1}, int64(value.None))); at != 2 {
		t.Fatalf("scan finds a zigzag NIL at %d, want 2", at)
	}
	cases := []struct {
		name   string
		prot   programs.Protocol
		inputs []value.Value
		tsk    task.Task
	}{
		{"alg2-n4", programs.Algorithm2(4, 1), dacInputs(4), task.DAC{N: 4, P: 0}},
		{"pacm-alg2-n4", programs.Algorithm2ViaPACM(4, 2, 1), dacInputs(4), task.DAC{N: 4, P: 0}},
		{"oprime-kset", programs.KSetFromOPrime(core.NewOPrime(2, nil), 2, 4), []value.Value{3, 3, 5, 5}, task.KSetAgreement{N: 4, K: 2}},
		{"oprime-base-kset", programs.KSetFromOPrimeBase(2, 2, 4), []value.Value{3, 3, 3, 5}, task.KSetAgreement{N: 4, K: 2}},
	}
	for _, tc := range cases {
		sys, err := tc.prot.System(tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
			name := fmt.Sprintf("%s/symmetry=%s", tc.name, sym)
			rep, err := explore.Check(sys, tc.tsk, explore.Options{Workers: 2, Symmetry: sym})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			keys, edges, bad := 0, 0, 0
			explore.EachRecord(rep, func(isEdges bool, id int, rec []byte) {
				if isEdges {
					edges++
				} else {
					keys++
				}
				if at := tenByteVarint(rec); at >= 0 {
					if bad == 0 {
						t.Errorf("%s: configuration %d (edge record %v): ten-byte varint at byte %d of %x", name, id, isEdges, at, rec)
					}
					bad++
				}
			})
			if bad > 1 {
				t.Errorf("%s: %d records with a ten-byte varint", name, bad)
			}
			if keys != rep.States || edges == 0 {
				t.Errorf("%s: walked %d keys and %d edge records of %d configurations", name, keys, edges, rep.States)
			}
		}
	}
}
