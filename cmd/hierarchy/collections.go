package main

import (
	"fmt"
	"io"

	"setagree/internal/collections"
	"setagree/internal/obs"
	"setagree/internal/power"
)

// collectionsMenu is the reference menu the -collections tables range
// over: the same three types as sweepspec.CollectionsRef, spanning a
// consensus object, a bounded SA type, and an unbounded one.
func collectionsMenu() []collections.Type {
	return []collections.Type{
		{N: 2, K: 1},
		{N: 3, K: 2},
		{N: power.Infinite, K: 2},
	}
}

// printCollections renders the set-consensus collections tables: for
// every multiset of sizes 1 and 2 over the reference menu, the
// canonical form after dominance pruning, the collection's power
// prefix, and the least K such that n processes solve K-set agreement
// with it (registers always free).
func printCollections(w io.Writer, levels, procs int, sink *obs.Sink) error {
	eng := collections.NewEngine()
	fmt.Fprintln(w, "Set-consensus collections (registers free; dominated types struck by pruning)")
	for size := 1; size <= 2; size++ {
		space := collections.Space{Menu: collectionsMenu(), Size: size}
		fmt.Fprintf(w, "\n  size %d:\n", size)
		fmt.Fprintf(w, "  %-24s %-14s %-*s %s\n", "collection", "canonical", levels*4+8, "power", fmt.Sprintf("least K for n=%d", procs))
		for i := 0; i < space.Count(); i++ {
			c, err := space.At(i)
			if err != nil {
				return err
			}
			seq, err := eng.Power(c)
			if err != nil {
				return err
			}
			ma, err := eng.MinAgreement(c, procs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-24s %-14s %-*s %d\n",
				c.String(), c.Canonical().String(), levels*4+8, power.Format(seq, levels), ma)
			sink.Counter("hierarchy.collections").Inc()
		}
	}
	fmt.Fprintln(w)
	return nil
}
