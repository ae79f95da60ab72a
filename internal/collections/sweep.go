package collections

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"setagree/internal/obs"
	"setagree/internal/power"
)

// Task is the verdict question a sweep asks of every collection: can
// Procs processes solve K-set agreement?
type Task struct {
	// Procs is the process count.
	Procs int `json:"procs"`
	// K is the agreement bound.
	K int `json:"k"`
}

// Validate rejects degenerate tasks.
func (t Task) Validate() error {
	if t.Procs < 1 {
		return fmt.Errorf("collections: task needs procs >= 1, got %d", t.Procs)
	}
	if t.K < 1 {
		return fmt.Errorf("collections: task needs k >= 1, got %d", t.K)
	}
	return nil
}

// SweepOptions configures a collection sweep. The zero value works.
type SweepOptions struct {
	// Workers is the decision parallelism (0 = GOMAXPROCS). The report
	// is byte-identical at any worker count.
	Workers int
	// Levels is the power-prefix length rendered per row (0 = 4).
	Levels int
	// DisablePrune ablates dominance pruning: the DP runs over raw
	// multisets and the memo loses cross-collection sharing. Verdicts
	// and report bytes are unchanged — pinned by tests.
	DisablePrune bool
	// Obs receives collections.* counters; Events the collections.*
	// event stream.
	Obs    *obs.Sink
	Events *obs.Emitter
	// Ctx cancels the sweep (nil = background).
	Ctx context.Context
}

func (o SweepOptions) fill() SweepOptions {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Levels < 1 {
		o.Levels = 4
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// Row is one collection's verdict.
type Row struct {
	// Index is the collection's index in the space.
	Index int `json:"index"`
	// Collection and Canonical render the raw and pruned multisets.
	Collection string `json:"collection"`
	Canonical  string `json:"canonical"`
	// Power is the collection's power-sequence prefix (Levels entries).
	Power string `json:"power"`
	// MinAgreement is the least K Procs processes reach.
	MinAgreement int `json:"min_agreement"`
	// Solvable reports MinAgreement <= Task.K.
	Solvable bool `json:"solvable"`
	// Pruned reports that dominance pruning spared this collection a
	// fresh evaluation: its canonical form differs from the raw
	// multiset, or an earlier collection shares the canonical form. The
	// flag is a function of the space alone — not of scheduling, worker
	// count, or whether pruning was enabled — so reports stay
	// byte-identical across all of those.
	Pruned bool `json:"pruned"`
}

// Report is the sweep's canonical document.
type Report struct {
	// Space and Task echo the sweep parameters.
	Space Space `json:"space"`
	Task  Task  `json:"task"`
	// Levels is the rendered power-prefix length.
	Levels int `json:"levels"`
	// Collections is the space size; Pruned and Solvable count rows
	// with the flag set.
	Collections int `json:"collections"`
	Pruned      int `json:"pruned"`
	Solvable    int `json:"solvable"`
	// Rows holds every collection's verdict in index order.
	Rows []Row `json:"rows"`
}

// Render marshals the canonical byte form: indented JSON with a
// trailing newline, byte-identical for equal reports.
func (r *Report) Render() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Sweep decides every collection in the space and returns the
// canonical Report — a pure function of (space, task, levels),
// byte-identical at any worker count and with pruning on or off.
func Sweep(space Space, tsk Task, opts SweepOptions) (*Report, error) {
	opts = opts.fill()
	rep, err := sweep(space, tsk, opts)
	if err != nil {
		opts.Events.Emit("collections.error", obs.Fields{"error": err.Error()})
		return nil, err
	}
	opts.Events.Emit("collections.done", obs.Fields{
		"decided": rep.Collections, "pruned": rep.Pruned, "solvable": rep.Solvable,
	})
	return rep, nil
}

func sweep(space Space, tsk Task, opts SweepOptions) (*Report, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := tsk.Validate(); err != nil {
		return nil, err
	}
	total := space.Count()
	// First appearance of each canonical form: makes Row.Pruned a
	// function of the space, independent of scheduling.
	firstSeen := make(map[string]int)
	for i := 0; i < total; i++ {
		c, err := space.At(i)
		if err != nil {
			return nil, err
		}
		key := c.Canonical().Key()
		if _, ok := firstSeen[key]; !ok {
			firstSeen[key] = i
		}
	}

	eng := NewEngine()
	rows := make([]Row, total)
	var (
		next            atomic.Int64
		decided, pruned atomic.Int64
		wg              sync.WaitGroup
		errMu           sync.Mutex
		firstErr        error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if err := opts.Ctx.Err(); err != nil {
					fail(err)
					return
				}
				row, err := decideOne(space, tsk, i, firstSeen, eng, opts)
				if err != nil {
					fail(err)
					return
				}
				rows[i] = row
				d := decided.Add(1)
				p := pruned.Load()
				if row.Pruned {
					p = pruned.Add(1)
					opts.Obs.Counter("collections.pruned").Inc()
				}
				opts.Obs.Counter("collections.decided").Inc()
				if row.Solvable {
					opts.Obs.Counter("collections.solvable").Inc()
				}
				opts.Events.Emit("collections.progress", obs.Fields{
					"index": i, "decided": d, "pruned": p,
				})
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	rep := &Report{Space: space, Task: tsk, Levels: opts.Levels, Collections: total, Rows: rows}
	for _, row := range rows {
		if row.Pruned {
			rep.Pruned++
		}
		if row.Solvable {
			rep.Solvable++
		}
	}
	return rep, nil
}

func decideOne(space Space, tsk Task, i int, firstSeen map[string]int, eng *Engine, opts SweepOptions) (Row, error) {
	c, err := space.At(i)
	if err != nil {
		return Row{}, err
	}
	canon := c.Canonical()
	ma, err := eng.minAgreement(c, tsk.Procs, !opts.DisablePrune, opts.Obs)
	if err != nil {
		return Row{}, err
	}
	seq, err := eng.powerSeq(c, !opts.DisablePrune)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Index:        i,
		Collection:   c.String(),
		Canonical:    canon.String(),
		Power:        power.Format(seq, opts.Levels),
		MinAgreement: ma,
		Solvable:     ma <= tsk.K,
		Pruned:       canon.Key() != c.Key() || firstSeen[canon.Key()] < i,
	}, nil
}
