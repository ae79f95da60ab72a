package explore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"setagree/internal/checkpoint"
	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/task"
	"setagree/internal/value"
)

// durableInstance is the pinned kill-resume instance: Algorithm 2 at
// n=4 with a mixed input vector, so the graph has nontrivial depth,
// both decision values, and (for symmetry=ids) a nontrivial group.
func durableInstance(t testing.TB) (*explore.System, task.Task) {
	t.Helper()
	prot := programs.Algorithm2(4, 1)
	sys, err := prot.System([]value.Value{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, task.DAC{N: 4, P: 0}
}

// fixedClock makes event streams reproducible byte-for-byte across the
// reference, checkpointed, and resumed runs.
func fixedClock() time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC)
}

func dotOf(t *testing.T, rep *explore.Report) string {
	t.Helper()
	var b strings.Builder
	if err := rep.WriteDOT(&b, 1<<20); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	return b.String()
}

// sameReport asserts every externally observable artifact of the two
// explorations is identical: counts, violations with witnesses,
// valency analysis, and DOT rendering.
func sameReport(t *testing.T, label string, got, want *explore.Report) {
	t.Helper()
	if got.States != want.States || got.Transitions != want.Transitions || got.Quiescent != want.Quiescent {
		t.Errorf("%s: counts (%d,%d,%d), want (%d,%d,%d)", label,
			got.States, got.Transitions, got.Quiescent,
			want.States, want.Transitions, want.Quiescent)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: violations differ: %v vs %v", label, got.Violations, want.Violations)
	}
	if !reflect.DeepEqual(got.Valency, want.Valency) {
		t.Errorf("%s: valency reports differ: %+v vs %+v", label, got.Valency, want.Valency)
	}
	if gd, wd := dotOf(t, got), dotOf(t, want); gd != wd {
		t.Errorf("%s: DOT output differs (%d vs %d bytes)", label, len(gd), len(wd))
	}
}

// TestKillResumeByteIdentical is the pinned durability suite: for
// every level barrier of the alg2 n=4 exploration, at workers 1 and 4
// and symmetry off and ids, resuming the barrier's snapshot yields a
// Report, witness set, DOT rendering, and event stream byte-identical
// to the uninterrupted run's. The snapshot-writing run itself must
// also be unperturbed.
func TestKillResumeByteIdentical(t *testing.T) {
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
					HeartbeatEvery: 64, // small enough for several heartbeats
				}

				var refEvents bytes.Buffer
				refOpts := base
				refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
				refRep, err := explore.Check(sys, tsk, refOpts)
				if err != nil {
					t.Fatalf("reference Check: %v", err)
				}

				// Full checkpointed run: copy the snapshot and record the
				// event-stream prefix at every level barrier.
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
					t.Fatalf("checkpointed Check: %v", err)
				}
				sameReport(t, "checkpointed run", ckRep, refRep)
				if !bytes.Equal(ckEvents.Bytes(), refEvents.Bytes()) {
					t.Fatalf("checkpointing perturbed the event stream")
				}
				if len(snaps) < 3 {
					t.Fatalf("only %d level snapshots; instance too shallow to exercise resume", len(snaps))
				}

				for _, sn := range snaps {
					var resEvents bytes.Buffer
					resEvents.Write(ckEvents.Bytes()[:sn.prefix])
					resOpts := base
					resOpts.Events = obs.NewEmitterAt(&resEvents, fixedClock)
					rep, err := explore.Resume(sn.file, sys, tsk, resOpts)
					if err != nil {
						t.Fatalf("Resume(%s): %v", sn.file, err)
					}
					sameReport(t, filepath.Base(sn.file), rep, refRep)
					if !bytes.Equal(resEvents.Bytes(), refEvents.Bytes()) {
						t.Errorf("%s: resumed event stream differs from uninterrupted run", filepath.Base(sn.file))
					}
				}
			})
		}
	}
}

// errKilled simulates a crash at a level barrier via the After hook.
var errKilled = errors.New("simulated crash")

// TestKillResumeEventsFile exercises the real recovery path end to
// end: events to a file on disk, a hard stop that leaves terminal-event
// lines past the snapshot's sequence number, obs.TruncateEventsFile to
// trim them, and a resumed run appending to the trimmed file — whose
// final content must match the uninterrupted run's byte-for-byte.
func TestKillResumeEventsFile(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	base := explore.Options{Workers: 2, HeartbeatEvery: 64}

	var refEvents bytes.Buffer
	refOpts := base
	refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
	if _, err := explore.Check(sys, tsk, refOpts); err != nil {
		t.Fatalf("reference Check: %v", err)
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	eventsPath := filepath.Join(dir, "events.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	killOpts := base
	killOpts.Events = obs.NewEmitterAt(ef, fixedClock)
	killOpts.Checkpoint = explore.CheckpointOptions{
		Path: ckptPath,
		After: func(level int) error {
			if level == 3 {
				return errKilled
			}
			return nil
		},
	}
	if _, err := explore.Check(sys, tsk, killOpts); !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v, want errKilled", err)
	}
	if err := killOpts.Events.Sync(); err != nil {
		t.Fatalf("Sync after kill: %v", err)
	}
	ef.Close()

	info, err := explore.PeekCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("PeekCheckpoint: %v", err)
	}
	if info.Level != 3 || info.States == 0 || info.Expanded == 0 {
		t.Fatalf("PeekCheckpoint = %+v, want level 3 with progress", info)
	}
	// The killed run's file carries the explore.error terminal event,
	// which the snapshot does not know about.
	preTrim, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(preTrim, []byte("explore.error")) {
		t.Fatalf("killed run emitted no terminal event")
	}
	if err := obs.TruncateEventsFile(eventsPath, info.EventSeq); err != nil {
		t.Fatalf("TruncateEventsFile: %v", err)
	}

	ef, err = os.OpenFile(eventsPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	resOpts := base
	resOpts.Events = obs.NewEmitterAt(ef, fixedClock)
	if _, err := explore.Resume(ckptPath, sys, tsk, resOpts); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := resOpts.Events.Sync(); err != nil {
		t.Fatalf("Sync after resume: %v", err)
	}
	ef.Close()

	got, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refEvents.Bytes()) {
		t.Errorf("resumed events file differs from uninterrupted stream (%d vs %d bytes)",
			len(got), refEvents.Len())
	}
}

// TestContextCancelWritesFinalCheckpoint pins the cancellation
// contract: a cancelled exploration stops at the next level barrier,
// writes a final snapshot, flushes partial counters, emits exactly one
// terminal event, and returns an error classified by ctx.Err(); the
// snapshot then resumes to the uninterrupted verdict.
func TestContextCancelWritesFinalCheckpoint(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)

	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("reference Check: %v", err)
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := obs.NewSink()
	var events bytes.Buffer
	rep, err := explore.Check(sys, tsk, explore.Options{
		Workers: 2,
		Ctx:     ctx,
		Obs:     sink,
		Events:  obs.NewEmitterAt(&events, fixedClock),
		Checkpoint: explore.CheckpointOptions{
			Path:        ckptPath,
			EveryLevels: 1 << 20, // periodic snapshots off: only the cancellation snapshot
			After: func(level int) error {
				t.Fatalf("periodic snapshot at level %d despite EveryLevels", level)
				return nil
			},
		},
	})
	_ = rep
	// Not cancelled yet: EveryLevels larger than the level count means
	// the run completes without snapshots. Re-run with a hook-triggered
	// cancel to stop mid-exploration.
	if err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
	if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot written despite EveryLevels gate: %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	events.Reset()
	rep, err = explore.Check(sys, tsk, explore.Options{
		Workers: 2,
		Ctx:     ctx,
		Obs:     sink,
		Events:  obs.NewEmitterAt(&events, fixedClock),
		Checkpoint: explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				if level == 2 {
					cancel()
				}
				return nil
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Check returned %v, want context.Canceled", err)
	}
	if rep == nil || rep.States == 0 {
		t.Fatalf("cancelled Check returned no partial report: %+v", rep)
	}
	if n := bytes.Count(events.Bytes(), []byte(`"event":"explore.error"`)); n != 1 {
		t.Fatalf("cancelled run emitted %d terminal explore.error events, want 1:\n%s", n, events.Bytes())
	}
	if snap := sink.Snapshot(); snap.Counters["explore.errors"] != 1 {
		t.Fatalf("explore.errors counter = %d, want 1", snap.Counters["explore.errors"])
	}

	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume after cancel: %v", err)
	}
	sameReport(t, "resume after cancel", resRep, refRep)
}

// TestResumeRejections pins every refusal class of explore.Resume: a
// snapshot from different inputs or a different symmetry mode
// (fingerprint), damaged or truncated bytes, a foreign magic number, a
// future payload version, a wrong kind, and a CRC-valid payload with a
// negative heartbeat boundary. Each rejected resume still
// honours the terminal-event contract.
func TestResumeRejections(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	opts := explore.Options{
		Workers: 2,
		Checkpoint: explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				if level == 2 {
					return errKilled
				}
				return nil
			},
		},
	}
	if _, err := explore.Check(sys, tsk, opts); !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v", err)
	}
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, buf []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Fingerprint: same protocol, different inputs.
	otherSys, err := programs.Algorithm2(4, 1).System([]value.Value{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	resOpts := explore.Options{Workers: 2, Events: obs.NewEmitterAt(&events, fixedClock)}
	if _, err := explore.Resume(ckptPath, otherSys, tsk, resOpts); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Errorf("resume with different inputs: %v, want ErrFingerprint", err)
	}
	if n := bytes.Count(events.Bytes(), []byte(`"event":"explore.error"`)); n != 1 {
		t.Errorf("rejected resume emitted %d terminal events, want 1", n)
	}

	// Fingerprint: same system, different symmetry mode.
	if _, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Symmetry: explore.SymmetryIDs}); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Errorf("resume with different symmetry: %v, want ErrFingerprint", err)
	}

	// Damage classes on the container.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := explore.Resume(write("flip.ckpt", flipped), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("bit-flipped snapshot: %v, want ErrCorrupt", err)
	}
	if _, err := explore.Resume(write("trunc.ckpt", raw[:len(raw)/2]), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("truncated snapshot: %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := explore.Resume(write("magic.ckpt", bad), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}

	// Version skew and wrong kind, via hand-written containers.
	h, err := checkpoint.Peek(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	skew := filepath.Join(dir, "skew.ckpt")
	if err := checkpoint.Write(skew, checkpoint.Header{Kind: h.Kind, Version: h.Version + 1, Fingerprint: h.Fingerprint}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.Resume(skew, sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrVersion) {
		t.Errorf("version skew: %v, want ErrVersion", err)
	}
	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := checkpoint.Write(foreign, checkpoint.Header{Kind: "jobs.journal", Version: 1, Fingerprint: h.Fingerprint}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.Resume(foreign, sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrKind) {
		t.Errorf("foreign kind: %v, want ErrKind", err)
	}

	// A CRC-valid payload whose heartbeat boundary is negative: a
	// resumed run with events would step it up to the expanded count
	// one heartbeat at a time.
	_, payload, err := checkpoint.ReadUnverified(ckptPath, h.Kind, h.Version)
	if err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDec(payload)
	d.Byte() // symmetry mode
	for range 6 {
		d.Int() // group order, level, expanded, transitions, quiescent, frontier max
	}
	at := len(payload) - d.Len()
	d.Int() // heartbeat boundary
	neg := binary.AppendVarint(slices.Clone(payload[:at]), -1<<40)
	neg = append(neg, payload[len(payload)-d.Len():]...)
	negPath := filepath.Join(dir, "neg.ckpt")
	if err := checkpoint.Write(negPath, h, neg); err != nil {
		t.Fatal(err)
	}
	negOpts := explore.Options{Events: obs.NewEmitterAt(io.Discard, fixedClock), HeartbeatEvery: 64}
	if _, err := explore.Resume(negPath, sys, tsk, negOpts); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("negative heartbeat boundary: %v, want ErrCorrupt", err)
	}

	// A rejected snapshot must also fail PeekCheckpoint cleanly.
	if _, err := explore.PeekCheckpoint(write("peek.ckpt", flipped)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("PeekCheckpoint on damage: %v, want ErrCorrupt", err)
	}

	// And the undamaged snapshot still resumes to the right verdict.
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume of intact snapshot: %v", err)
	}
	sameReport(t, "intact resume", resRep, refRep)
}

// TestResumeAcrossWorkerCounts checks a snapshot written at one worker
// count resumes at another — determinism holds because worker count is
// excluded from the fingerprint by design.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	opts := explore.Options{
		Workers: 4,
		Checkpoint: explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				if level == 4 {
					return errKilled
				}
				return nil
			},
		},
	}
	if _, err := explore.Check(sys, tsk, opts); !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v", err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 1})
	if err != nil {
		t.Fatalf("Resume at workers=1 of a workers=4 snapshot: %v", err)
	}
	sameReport(t, "cross-worker resume", resRep, refRep)
}

// FuzzResume feeds mutated snapshot payloads to Resume. Each input is
// re-wrapped with checkpoint.Write under the header of the snapshot
// mode its first byte names (off or ids; any other byte gets off's and
// is rejected as a mode mismatch), so a mutation passes the
// container's CRC and reaches the explorer's own decoder. The seeds
// are level-3 snapshots of durableInstance at symmetry off and ids,
// whose edge records carry group indices; the resumed run emits events
// with heartbeats, so the restored counters are exercised too. The
// contract is a report or a typed error, never a panic or a hang. Resume validates the spanning tree by
// replay but accepts any in-range edge record, so a mutated edge can
// still change the verdict; only crashes and untyped errors fail here.
func FuzzResume(f *testing.F) {
	sys, tsk := durableInstance(f)
	dir := f.TempDir()
	headers := map[explore.Symmetry]checkpoint.Header{}
	for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
		path := filepath.Join(dir, sym.String()+".ckpt")
		opts := explore.Options{Workers: 1, Symmetry: sym, Checkpoint: explore.CheckpointOptions{
			Path: path,
			After: func(level int) error {
				if level == 3 {
					return errKilled
				}
				return nil
			},
		}}
		if _, err := explore.Check(sys, tsk, opts); !errors.Is(err, errKilled) {
			f.Fatalf("%v: snapshot run returned %v, want errKilled", sym, err)
		}
		h, payload, err := checkpoint.ReadUnverified(path, "explore.bfs", 1)
		if err != nil {
			f.Fatal(err)
		}
		headers[sym] = h
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sym := explore.SymmetryOff
		if len(payload) > 0 && explore.Symmetry(payload[0]) == explore.SymmetryIDs {
			sym = explore.SymmetryIDs
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := checkpoint.Write(path, headers[sym], payload); err != nil {
			t.Fatal(err)
		}
		rep, err := explore.Resume(path, sys, tsk, explore.Options{
			Workers:        1,
			Symmetry:       sym,
			MaxStates:      1 << 14,
			Events:         obs.NewEmitterAt(io.Discard, fixedClock),
			HeartbeatEvery: 64,
		})
		if rep != nil {
			defer rep.Close()
		}
		if err != nil && !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, explore.ErrStateLimit) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
