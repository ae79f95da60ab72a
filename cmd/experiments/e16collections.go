package main

import (
	"bytes"
	"fmt"
	"time"

	"setagree/internal/collections"
	"setagree/internal/power"
	"setagree/internal/sweepspec"
)

// collectionsCrossMenu is the size-1 cross-validation space: each
// singleton collection over the reference types, checked at every
// process count the model checker can afford.
func collectionsCrossMenu() collections.Space {
	return collections.Space{
		Menu: []collections.Type{{N: 2, K: 1}, {N: 3, K: 2}, {N: power.Infinite, K: 2}},
		Size: 1,
	}
}

// e16Collections: the set-consensus collections subsystem rows. First
// the decision procedure's determinism claim — the reference sweep
// renders byte-identical reports across worker counts and with
// dominance pruning on or off — then the cross-validation matrix:
// every solvability verdict at N <= maxProcs confirmed by the model
// checker, constructively (witness protocol checks out) or by
// exhaustive falsification.
func (r *runner) e16Collections() {
	if r.stopped() {
		return
	}
	start := time.Now()
	sp := sweepspec.CollectionsRef()
	space, tsk := sp.Space(), sp.Task()
	var base []byte
	identical := true
	detail := ""
	var ref *collections.Report
	for _, cfg := range []struct {
		workers int
		prune   bool
	}{{1, true}, {4, true}, {1, false}, {4, false}} {
		rep, err := collections.Sweep(space, tsk, collections.SweepOptions{
			Workers:      cfg.workers,
			DisablePrune: !cfg.prune,
			Obs:          r.sink,
			Events:       r.events,
			Ctx:          r.ctx,
		})
		if err != nil {
			r.add("E16", "Collections: sweep is schedule-independent", "reference space", false, err.Error(), time.Since(start))
			return
		}
		buf, err := rep.Render()
		if err != nil {
			r.add("E16", "Collections: sweep is schedule-independent", "reference space", false, err.Error(), time.Since(start))
			return
		}
		if base == nil {
			base, ref = buf, rep
		} else if !bytes.Equal(buf, base) {
			identical = false
			detail = fmt.Sprintf("workers=%d prune=%v diverged; ", cfg.workers, cfg.prune)
		}
	}
	detail += fmt.Sprintf("%d collections, %d pruned, %d solvable", ref.Collections, ref.Pruned, ref.Solvable)
	r.add("E16", "Collections: sweep is schedule-independent",
		"workers {1,4} x prune {on,off}", identical && ref.Collections == space.Count(), detail, time.Since(start))

	if r.stopped() {
		return
	}
	start = time.Now()
	maxProcs := 4
	if r.quick {
		maxProcs = 3
	}
	eng := collections.NewEngine()
	results, err := collections.CrossValidateMatrix(eng, collectionsCrossMenu(), maxProcs, collections.CrossOptions{
		Workers:  r.workers,
		Symmetry: r.symmetry,
		Obs:      r.sink,
		Events:   r.events,
	})
	if err != nil {
		r.add("E16", "Collections: verdicts match the model checker", fmt.Sprintf("N<=%d matrix", maxProcs), false, err.Error(), time.Since(start))
		return
	}
	confirmed, solvable, states := 0, 0, 0
	firstFail := ""
	for _, res := range results {
		if res.Confirmed {
			confirmed++
		} else if firstFail == "" {
			firstFail = fmt.Sprintf("; first failure %s procs=%d K=%d: %s", res.Collection, res.Procs, res.K, res.Detail)
		}
		if res.Solvable {
			solvable++
		}
		states += res.States
	}
	ok := len(results) > 0 && confirmed == len(results) && solvable > 0 && solvable < len(results)
	detail = fmt.Sprintf("%d/%d verdicts confirmed (%d solvable, %d unsolvable), %d configs%s",
		confirmed, len(results), solvable, len(results)-solvable, states, firstFail)
	r.add("E16", "Collections: verdicts match the model checker",
		fmt.Sprintf("singletons, N<=%d", maxProcs), ok, detail, time.Since(start))

	// The genuinely mixed multiset, both verdict sides at one N.
	if r.stopped() {
		return
	}
	start = time.Now()
	mixed := collections.Collection{Types: []collections.Type{{N: 2, K: 1}, {N: 3, K: 2}}}
	ma, err := eng.MinAgreement(mixed, 4)
	if err != nil {
		r.add("E16", "Collections: mixed multiset boundary", mixed.String(), false, err.Error(), time.Since(start))
		return
	}
	opts := collections.CrossOptions{Workers: r.workers, Symmetry: r.symmetry, Obs: r.sink, Events: r.events}
	pos, err := collections.CrossValidate(eng, mixed, collections.Task{Procs: 4, K: ma}, opts)
	if err == nil && ma > 1 {
		var neg collections.CrossResult
		neg, err = collections.CrossValidate(eng, mixed, collections.Task{Procs: 4, K: ma - 1}, opts)
		if err == nil {
			ok = pos.Solvable && pos.Confirmed && !neg.Solvable && neg.Confirmed
			detail = fmt.Sprintf("least K=%d at N=4: K=%d solvable confirmed, K=%d unsolvable confirmed", ma, ma, ma-1)
			if !ok {
				detail = fmt.Sprintf("least K=%d: positive %s / negative %s", ma, pos.Detail, neg.Detail)
			}
		}
	}
	if err != nil {
		ok, detail = false, err.Error()
	}
	r.add("E16", "Collections: mixed multiset boundary", mixed.String()+" at N=4", ok, detail, time.Since(start))
}
