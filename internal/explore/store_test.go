package explore_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// TestDiskStoreReportEquivalence pins the out-of-core contract: a
// directory-backed exploration produces a Report, witness set, valency
// analysis, DOT rendering, and event stream byte-identical to the
// heap-backed store's, at every worker count and symmetry mode. It
// also checks the directory store actually spilled (the equivalence
// would be vacuous if nothing reached the files) and that Close is
// idempotent and removes the arena files.
func TestDiskStoreReportEquivalence(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
			workers, sym := workers, sym
			t.Run(fmt.Sprintf("workers=%d/symmetry=%s", workers, sym), func(t *testing.T) {
				t.Parallel()
				sys, tsk := durableInstance(t)
				base := explore.Options{
					Workers:        workers,
					Symmetry:       sym,
					Valency:        true,
					HeartbeatEvery: 64,
				}

				var memEvents bytes.Buffer
				memOpts := base
				memOpts.Events = obs.NewEmitterAt(&memEvents, fixedClock)
				memRep, err := explore.Check(sys, tsk, memOpts)
				if err != nil {
					t.Fatalf("heap-backed Check: %v", err)
				}

				dir := t.TempDir()
				sink := obs.NewSink()
				var diskEvents bytes.Buffer
				diskOpts := base
				diskOpts.Obs = sink
				diskOpts.Events = obs.NewEmitterAt(&diskEvents, fixedClock)
				diskOpts.Store = store.Options{Dir: dir}
				diskRep, err := explore.Check(sys, tsk, diskOpts)
				if err != nil {
					t.Fatalf("disk-backed Check: %v", err)
				}
				sameReport(t, "disk vs heap", diskRep, memRep)
				if !bytes.Equal(diskEvents.Bytes(), memEvents.Bytes()) {
					t.Errorf("disk-backed event stream differs from heap-backed run")
				}
				snap := sink.Snapshot()
				if snap.Counters["store.spilled_bytes"] == 0 {
					t.Errorf("store.spilled_bytes = 0: nothing spilled, equivalence is vacuous")
				}
				if snap.Gauges["explore.batch_size"] == 0 {
					t.Errorf("explore.batch_size gauge not recorded")
				}

				if err := diskRep.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := diskRep.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Errorf("store dir not empty after Close: %v", ents)
				}
				// Counts survive Close; only graph walks are released.
				if diskRep.States != memRep.States {
					t.Errorf("States after Close = %d, want %d", diskRep.States, memRep.States)
				}
			})
		}
	}
}

// TestDiskStoreCheckpointBytesIdentical requires a directory-backed
// run's level snapshots to be byte-for-byte a heap-backed run's: both
// serve the checkpoint edge section zero-copy from the Edges arena, so
// this pins that the mmap'd chunks reassemble the heap arena's bytes.
func TestDiskStoreCheckpointBytesIdentical(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	base := explore.Options{Workers: 4, Valency: true}

	snapsOf := func(opts explore.Options) map[int][]byte {
		dir := t.TempDir()
		ckptPath := filepath.Join(dir, "run.ckpt")
		snaps := make(map[int][]byte)
		opts.Checkpoint = explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				buf, err := os.ReadFile(ckptPath)
				if err != nil {
					return err
				}
				snaps[level] = buf
				return nil
			},
		}
		rep, err := explore.Check(sys, tsk, opts)
		if err != nil {
			t.Fatalf("checkpointed Check: %v", err)
		}
		defer rep.Close()
		return snaps
	}

	memSnaps := snapsOf(base)
	diskOpts := base
	diskOpts.Store = store.Options{Dir: t.TempDir()}
	diskSnaps := snapsOf(diskOpts)

	if len(memSnaps) != len(diskSnaps) || len(memSnaps) < 3 {
		t.Fatalf("snapshot counts differ or too shallow: %d vs %d", len(memSnaps), len(diskSnaps))
	}
	for level, want := range memSnaps {
		got, ok := diskSnaps[level]
		if !ok {
			t.Errorf("disk run wrote no level-%d snapshot", level)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("level-%d snapshot differs between disk and heap stores (%d vs %d bytes)",
				level, len(got), len(want))
		}
	}
}

// TestKillResumeDiskStore extends the kill-resume suite to the
// disk-backed engine: every level snapshot of a disk-backed run must
// resume — into a fresh disk store — to a Report and event stream
// byte-identical to the uninterrupted heap-backed run's.
func TestKillResumeDiskStore(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
			workers, sym := workers, sym
			t.Run(fmt.Sprintf("workers=%d/symmetry=%s", workers, sym), func(t *testing.T) {
				t.Parallel()
				sys, tsk := durableInstance(t)
				base := explore.Options{
					Workers:        workers,
					Symmetry:       sym,
					Valency:        true,
					HeartbeatEvery: 64,
				}

				var refEvents bytes.Buffer
				refOpts := base
				refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
				refRep, err := explore.Check(sys, tsk, refOpts)
				if err != nil {
					t.Fatalf("reference Check: %v", err)
				}

				dir := t.TempDir()
				ckptPath := filepath.Join(dir, "run.ckpt")
				type snap struct {
					file   string
					prefix int
				}
				var snaps []snap
				var ckEvents bytes.Buffer
				ckOpts := base
				ckOpts.Events = obs.NewEmitterAt(&ckEvents, fixedClock)
				ckOpts.Store = store.Options{Dir: filepath.Join(dir, "store")}
				ckOpts.Checkpoint = explore.CheckpointOptions{
					Path: ckptPath,
					After: func(level int) error {
						buf, err := os.ReadFile(ckptPath)
						if err != nil {
							return err
						}
						cp := filepath.Join(dir, fmt.Sprintf("level%03d.ckpt", level))
						if err := os.WriteFile(cp, buf, 0o644); err != nil {
							return err
						}
						snaps = append(snaps, snap{cp, ckEvents.Len()})
						return nil
					},
				}
				ckRep, err := explore.Check(sys, tsk, ckOpts)
				if err != nil {
					t.Fatalf("checkpointed disk Check: %v", err)
				}
				defer ckRep.Close()
				sameReport(t, "checkpointed disk run", ckRep, refRep)
				if !bytes.Equal(ckEvents.Bytes(), refEvents.Bytes()) {
					t.Fatalf("disk checkpointing perturbed the event stream")
				}
				if len(snaps) < 3 {
					t.Fatalf("only %d level snapshots; instance too shallow", len(snaps))
				}

				for si, sn := range snaps {
					var resEvents bytes.Buffer
					resEvents.Write(ckEvents.Bytes()[:sn.prefix])
					resOpts := base
					resOpts.Events = obs.NewEmitterAt(&resEvents, fixedClock)
					resOpts.Store = store.Options{Dir: filepath.Join(dir, fmt.Sprintf("res%03d", si))}
					rep, err := explore.Resume(sn.file, sys, tsk, resOpts)
					if err != nil {
						t.Fatalf("Resume(%s) into disk store: %v", sn.file, err)
					}
					sameReport(t, filepath.Base(sn.file), rep, refRep)
					if !bytes.Equal(resEvents.Bytes(), refEvents.Bytes()) {
						t.Errorf("%s: resumed event stream differs", filepath.Base(sn.file))
					}
					rep.Close()
				}
			})
		}
	}
}

// TestDiskStoreBudgetExceeded pins the budget contract: a budget no
// real process fits under aborts the exploration at the first level
// barrier with an error wrapping store.ErrBudget, a partial report, a
// terminal event — and, when checkpointing, a resumable snapshot.
func TestDiskStoreBudgetExceeded(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	sink := obs.NewSink()
	rep, err := explore.Check(sys, tsk, explore.Options{
		Workers:    2,
		Obs:        sink,
		Store:      store.Options{Dir: filepath.Join(dir, "store"), Budget: 1},
		Checkpoint: explore.CheckpointOptions{Path: ckptPath},
	})
	if !errors.Is(err, store.ErrBudget) {
		t.Fatalf("Check with 1-byte budget returned %v, want ErrBudget", err)
	}
	if rep == nil || rep.States == 0 {
		t.Fatalf("budget abort returned no partial report: %+v", rep)
	}
	if err := rep.Close(); err != nil {
		t.Fatalf("Close after budget abort: %v", err)
	}
	if sink.Snapshot().Gauges["store.heap_bytes_max"] == 0 {
		t.Errorf("store.heap_bytes_max gauge not recorded")
	}

	// The abort left a snapshot; it resumes (heap-backed here) to the
	// uninterrupted verdict.
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume after budget abort: %v", err)
	}
	sameReport(t, "resume after budget abort", resRep, refRep)
}

// digestCase is one instance TestStoreDigests pins.
type digestCase struct {
	name    string
	sys     *explore.System
	tsk     task.Task
	valency bool
}

// digestCases are the kill-resume instance plus the three
// TestWorkersDeterminism protocols, which between them carry valency
// labels, critical configurations, a safety witness, and liveness
// witnesses with cycles.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	durSys, durTsk := durableInstance(t)
	cases := []digestCase{{name: "durable", sys: durSys, tsk: durTsk, valency: true}}
	for _, p := range []struct {
		name    string
		prot    programs.Protocol
		inputs  []value.Value
		tsk     task.Task
		valency bool
	}{
		{"algorithm2-dac", programs.Algorithm2(3, 1), []value.Value{1, 0, 0}, task.DAC{N: 3, P: 0}, true},
		{"naive-2sa-safety", programs.NaiveTwoSAConsensus(2), []value.Value{0, 1}, task.Consensus{N: 2}, false},
		{"oversubscribed-liveness", programs.OverSubscribedConsensus(2), []value.Value{0, 1, 2}, task.Consensus{N: 3}, false},
	} {
		sys, err := p.prot.System(p.inputs)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, digestCase{name: p.name, sys: sys, tsk: p.tsk, valency: p.valency})
	}
	return cases
}

// renderReport renders every observable field of a report — counts,
// violations with their witnesses and cycles, and the valency analysis
// — in Go syntax, so no field hides behind a String method.
func renderReport(rep *explore.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d transitions=%d quiescent=%d\n", rep.States, rep.Transitions, rep.Quiescent)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "violation kind=%d proc=%d err=%q\nwitness=%#v\ncycle=%#v\n",
			v.Kind, v.Proc, v.Err.Error(), v.Witness, v.Cycle)
	}
	if rep.Valency != nil {
		fmt.Fprintf(&b, "valency=%#v\n", *rep.Valency)
	}
	return b.String()
}

// TestStoreDigests pins SHA-256 digests of every output an exploration
// produces — the rendered report, WriteDOT, the fixed-clock event
// stream, and the final checkpoint file — for each digest case at
// Workers 1 and 4 and symmetry off and ids, with and without a store
// directory. The report and DOT digests were recorded from the
// map-interning engine the configuration store replaced, so they hold
// both store backends to its bytes. The checkpoint digests, and the ids
// event digests of durable and algorithm2-dac, were re-recorded when
// values took one-byte codes (checkpoint version 2): the snapshot bytes
// changed, and so did symmetry_hits, since under the new key order the
// canonical element differs from the identity on other successors.
func TestStoreDigests(t *testing.T) {
	t.Parallel()
	// want maps case/workers/symmetry to the report, DOT, events, and
	// checkpoint digests. Only the events digest depends on Workers (the
	// stream carries a workers field).
	want := map[string][4]string{
		"algorithm2-dac/workers=1/symmetry=ids":          {"c4809cf68db9c55721eabba9a5ae61bf56c8f72077c876fca916571a93af07cd", "15c3d6ae0d5dc396918e211f4d919eaf79450c98cd6e89c0d25d5b198f6cb37d", "d58930e59af86fcf05b484af0692d9b0f9a23ad7a01a5f4cba53552f1190df4e", "4fd41eebee4b6911363b5b3825ff55fa0979c958e7fa99c26f02c33c463c6ef6"},
		"algorithm2-dac/workers=1/symmetry=off":          {"f2f5e1e246e10ae0c5b9a489577cf121b6c4104f24423708816e19cae32ef4b0", "5477593c9bac201ab290f41a91ab26b7fb148f116ca4c65e4815ab795b09a49e", "e8f18519632437649337fd830b68f9b807a5fb7236786e44f93605e2ff744ae5", "2ddf983a720140c11b787e181b15011594d00efcba078ea5579b79d19103dba6"},
		"algorithm2-dac/workers=4/symmetry=ids":          {"c4809cf68db9c55721eabba9a5ae61bf56c8f72077c876fca916571a93af07cd", "15c3d6ae0d5dc396918e211f4d919eaf79450c98cd6e89c0d25d5b198f6cb37d", "ca191709eab7cb88560f444789a7bb2f37fa277c72b66ec21d2ee4df072031a4", "4fd41eebee4b6911363b5b3825ff55fa0979c958e7fa99c26f02c33c463c6ef6"},
		"algorithm2-dac/workers=4/symmetry=off":          {"f2f5e1e246e10ae0c5b9a489577cf121b6c4104f24423708816e19cae32ef4b0", "5477593c9bac201ab290f41a91ab26b7fb148f116ca4c65e4815ab795b09a49e", "4a81b6bc601d2c0c1c3d9aa9f150a68217556d650967ba8a829d8b23e6a6fe83", "2ddf983a720140c11b787e181b15011594d00efcba078ea5579b79d19103dba6"},
		"durable/workers=1/symmetry=ids":                 {"89f292cbe7e3c1fd5ef0c6db9bcbcf0d1091dc4152b5d3c9cffdb1142dbb422e", "922efd90b316c0de91dc4348a9e7e578ea83a1e502f1f9acfd42603c8744f2ac", "dd3e401fce5981127544b03cb89a9a2e8498f45699099ebde56cea54ae451ca4", "cef7a007c48bd5edb7ad18bfcf2d45d597d8b0f58e5773745da4fa5a4d47d186"},
		"durable/workers=1/symmetry=off":                 {"d9bff20f4b018ca2f2d0fb34c3f68bbf3095af6886299b0f2f9b8fdd859a245c", "93fc74e00e09124d8e7ed2e003727a43b88b58e15605151e6ebd4d89cb43fa70", "7fbeb63838b7ece88b841f1d07cd9469645ee2498a215d22c81a1b399a929e33", "5947001efe1e7d3534ca1f906b22c6b99dabf7c45c2c3f6efbc86faff9010152"},
		"durable/workers=4/symmetry=ids":                 {"89f292cbe7e3c1fd5ef0c6db9bcbcf0d1091dc4152b5d3c9cffdb1142dbb422e", "922efd90b316c0de91dc4348a9e7e578ea83a1e502f1f9acfd42603c8744f2ac", "e6463a54349fbfa81127f84fc8793d3046982687225a7a3592e485da41105766", "cef7a007c48bd5edb7ad18bfcf2d45d597d8b0f58e5773745da4fa5a4d47d186"},
		"durable/workers=4/symmetry=off":                 {"d9bff20f4b018ca2f2d0fb34c3f68bbf3095af6886299b0f2f9b8fdd859a245c", "93fc74e00e09124d8e7ed2e003727a43b88b58e15605151e6ebd4d89cb43fa70", "7a45774b0e63b015deaf95ee668cbf29288a3d3f80766104347394896d55d86d", "5947001efe1e7d3534ca1f906b22c6b99dabf7c45c2c3f6efbc86faff9010152"},
		"naive-2sa-safety/workers=1/symmetry=ids":        {"86af110b21e1f52624fba9e90d82b75045bd1fa45692f2ee155cc0d070ae0a60", "78117da7cb0286f47bf1d424b0891d26aaf4c2a893ac59cf339b50b554d9951a", "5cfd7ef802ba81dfbb19f7ee90d6d0a00ded2199793f3171a4576d3b4d3ba69e", "1a3f4dec3f5edc4f375403ac9651bc5b3a733dd20e93b4cfc9a8db68aacc1cb1"},
		"naive-2sa-safety/workers=1/symmetry=off":        {"86af110b21e1f52624fba9e90d82b75045bd1fa45692f2ee155cc0d070ae0a60", "78117da7cb0286f47bf1d424b0891d26aaf4c2a893ac59cf339b50b554d9951a", "7560858b32918af3fa26b2af9a03fa263a562e2cd202b704d52bd7414651e172", "e3f8b69281ba828f3333f824e30a9869aaf98570dafa04a09da9772fafbb993c"},
		"naive-2sa-safety/workers=4/symmetry=ids":        {"86af110b21e1f52624fba9e90d82b75045bd1fa45692f2ee155cc0d070ae0a60", "78117da7cb0286f47bf1d424b0891d26aaf4c2a893ac59cf339b50b554d9951a", "f1194d40b243aeed402cc8fad0c300edf3a2fea09c2b9f757b8e6d124d8dcb70", "1a3f4dec3f5edc4f375403ac9651bc5b3a733dd20e93b4cfc9a8db68aacc1cb1"},
		"naive-2sa-safety/workers=4/symmetry=off":        {"86af110b21e1f52624fba9e90d82b75045bd1fa45692f2ee155cc0d070ae0a60", "78117da7cb0286f47bf1d424b0891d26aaf4c2a893ac59cf339b50b554d9951a", "42edf8481d9bf4a7568e11ce1015d35276d39b8335f6047db97a3241d213f856", "e3f8b69281ba828f3333f824e30a9869aaf98570dafa04a09da9772fafbb993c"},
		"oversubscribed-liveness/workers=1/symmetry=ids": {"521351411d220e523676f7ef980ba764a09660df29bfe0ac9d019941927d45d5", "22bfc5dee67d203b2e298b3aa382736631d6aff685b6e50224d6d2cae8c0b6d8", "30885130574376c7366471574ccfd9b7d3daeda92e3a7db6b0411bacaa8ce7bc", "ab0c58ac306b4ec7ebeec0823f9e66ae4adad9c26082b68af0691f81973a4fd1"},
		"oversubscribed-liveness/workers=1/symmetry=off": {"521351411d220e523676f7ef980ba764a09660df29bfe0ac9d019941927d45d5", "22bfc5dee67d203b2e298b3aa382736631d6aff685b6e50224d6d2cae8c0b6d8", "1c59e058ff9ea2d4f458a8287ccba80593f0ef3cd4bf4fa65c5a7af65f0a52f0", "310daea669cebb8c7cbd2db1931bcdaa0bd03f2063cc4d8196c5b1cf17f5b9ce"},
		"oversubscribed-liveness/workers=4/symmetry=ids": {"521351411d220e523676f7ef980ba764a09660df29bfe0ac9d019941927d45d5", "22bfc5dee67d203b2e298b3aa382736631d6aff685b6e50224d6d2cae8c0b6d8", "cb27ff594ef936555ed31544119c96ee1281c956f55a783b1b06b1255249f7c6", "ab0c58ac306b4ec7ebeec0823f9e66ae4adad9c26082b68af0691f81973a4fd1"},
		"oversubscribed-liveness/workers=4/symmetry=off": {"521351411d220e523676f7ef980ba764a09660df29bfe0ac9d019941927d45d5", "22bfc5dee67d203b2e298b3aa382736631d6aff685b6e50224d6d2cae8c0b6d8", "d40488f64d0c1d4b68b3b865e949519fc53c67cde1ac2af55ff3105959858f80", "310daea669cebb8c7cbd2db1931bcdaa0bd03f2063cc4d8196c5b1cf17f5b9ce"},
	}
	for _, c := range digestCases(t) {
		for _, workers := range []int{1, 4} {
			for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
				for _, onDisk := range []bool{false, true} {
					name := fmt.Sprintf("%s/workers=%d/symmetry=%s", c.name, workers, sym)
					dir := t.TempDir()
					ckptPath := filepath.Join(dir, "run.ckpt")
					var events bytes.Buffer
					opts := explore.Options{
						Workers:        workers,
						Symmetry:       sym,
						Valency:        c.valency,
						HeartbeatEvery: 16,
						Events:         obs.NewEmitterAt(&events, fixedClock),
						Checkpoint:     explore.CheckpointOptions{Path: ckptPath},
					}
					if onDisk {
						opts.Store = store.Options{Dir: filepath.Join(dir, "store")}
					}
					rep, err := explore.Check(c.sys, c.tsk, opts)
					if err != nil {
						t.Fatalf("%s (store dir %v): %v", name, onDisk, err)
					}
					ckpt, err := os.ReadFile(ckptPath)
					if err != nil {
						t.Fatal(err)
					}
					sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
					d := [4]string{sum([]byte(renderReport(rep))), sum([]byte(dotOf(t, rep))), sum(events.Bytes()), sum(ckpt)}
					if err := rep.Close(); err != nil {
						t.Fatal(err)
					}
					if w := want[name]; d != w {
						t.Errorf("%s (store dir %v): digests\n got %q\nwant %q", name, onDisk, d, w)
					}
				}
			}
		}
	}
}
