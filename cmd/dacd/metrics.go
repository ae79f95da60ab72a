package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"setagree/internal/jobs"
	"setagree/internal/obs"
)

// Metric names under the server's own sink. HTTP request counters are
// keyed per route pattern behind a separator the renderer splits back
// into a label, so the hot path stays a single map lookup + atomic add.
const (
	httpRequestsPrefix = "dacd.http.requests|"
	httpLatencyName    = "dacd.http_ns"
)

// serverStats is the store-level state /metrics exports alongside the
// obs registry: queue occupancy, the job table by lifecycle state, and
// the on-disk footprint the archival sweeps bound.
type serverStats struct {
	Pending      int
	MaxPending   int
	States       map[jobs.State]int
	JournalBytes int64
	ArchiveBytes int64
}

// jobStates is every lifecycle state, in exposition order. All states
// are always exported (at 0 when absent) so scrape series never
// appear and disappear.
var jobStates = []jobs.State{jobs.Canceled, jobs.Done, jobs.Failed, jobs.Pending, jobs.Running}

// renderMetrics writes the Prometheus text exposition of a gathered
// snapshot plus the server stats. It is a pure function of its inputs
// — names are sorted and all formatting is fixed — so the output is
// byte-stable for a given state (the golden test pins it).
//
// Naming scheme, stable across releases:
//
//   - dacd_* families describe the daemon: per-route request counters,
//     request-latency quantiles, job-table gauges, journal/archive
//     sizes.
//   - every other sink metric exports under its dotted name with dots
//     flattened to underscores: counters as <name>_total, gauges
//     verbatim, timers as <name>_ns_total + <name>_calls_total,
//     histograms as ns summaries with quantile labels. The explorer's
//     metrics all start with explore_.
func renderMetrics(w io.Writer, snap obs.Snapshot, st serverStats) {
	writeHeader(w, "dacd_archive_bytes", "gauge", "Bytes of gzipped archived job payloads.")
	fmt.Fprintf(w, "dacd_archive_bytes %d\n", st.ArchiveBytes)

	writeHeader(w, "dacd_http_request_duration_ns", "summary", "HTTP request latency in nanoseconds (log-bucketed estimates; SSE streams excluded).")
	writeSummary(w, "dacd_http_request_duration_ns", snap.Histograms[httpLatencyName])

	writeHeader(w, "dacd_http_requests_total", "counter", "HTTP requests served, by route pattern.")
	var routes []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, httpRequestsPrefix) {
			routes = append(routes, strings.TrimPrefix(name, httpRequestsPrefix))
		}
	}
	sort.Strings(routes)
	for _, route := range routes {
		fmt.Fprintf(w, "dacd_http_requests_total{route=%q} %d\n", route, snap.Counters[httpRequestsPrefix+route])
	}

	writeHeader(w, "dacd_jobs", "gauge", "Jobs in the store, by lifecycle state.")
	for _, state := range jobStates {
		fmt.Fprintf(w, "dacd_jobs{state=%q} %d\n", state, st.States[state])
	}
	writeHeader(w, "dacd_jobs_max_pending", "gauge", "Submit bound on the pending queue (0 = unlimited).")
	fmt.Fprintf(w, "dacd_jobs_max_pending %d\n", st.MaxPending)
	writeHeader(w, "dacd_jobs_pending", "gauge", "Jobs waiting in the queue.")
	fmt.Fprintf(w, "dacd_jobs_pending %d\n", st.Pending)
	writeHeader(w, "dacd_journal_bytes", "gauge", "Size of the hot job journal.")
	fmt.Fprintf(w, "dacd_journal_bytes %d\n", st.JournalBytes)

	// Everything else in the registry (explore_* today), sorted by
	// family name. Server-internal dacd.* names were rendered above.
	type family struct {
		name, typ, help string
		write           func(io.Writer)
	}
	var fams []family
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "dacd.") {
			continue
		}
		fam, v := flatten(name)+"_total", v
		fams = append(fams, family{fam, "counter", "Run counter " + name + ".",
			func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", fam, v) }})
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "dacd.") {
			continue
		}
		fam, v := flatten(name), v
		fams = append(fams, family{fam, "gauge", "Run gauge " + name + ".",
			func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", fam, v) }})
	}
	for name, t := range snap.Timers {
		if strings.HasPrefix(name, "dacd.") {
			continue
		}
		fam, t := flatten(name), t
		fams = append(fams, family{fam + "_ns_total", "counter", "Total nanoseconds in timer " + name + ".",
			func(w io.Writer) { fmt.Fprintf(w, "%s_ns_total %d\n", fam, t.TotalNS) }})
		fams = append(fams, family{fam + "_calls_total", "counter", "Observations of timer " + name + ".",
			func(w io.Writer) { fmt.Fprintf(w, "%s_calls_total %d\n", fam, t.Count) }})
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "dacd.") {
			continue
		}
		fam, h := flatten(name), h
		fams = append(fams, family{fam, "summary", "Latency distribution " + name + " (log-bucketed estimates).",
			func(w io.Writer) { writeSummary(w, fam, h) }})
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	for _, f := range fams {
		writeHeader(w, f.name, f.typ, f.help)
		f.write(w)
	}
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSummary renders one histogram as a Prometheus summary: the
// three quantile estimates, then the _sum and _count series.
func writeSummary(w io.Writer, name string, h obs.HistogramSnapshot) {
	fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", name, h.P50)
	fmt.Fprintf(w, "%s{quantile=\"0.9\"} %d\n", name, h.P90)
	fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", name, h.P99)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// flatten turns a dotted sink name into a Prometheus-legal one.
// Collections-sweep metrics (collections.*) are daemon-level, not
// run-level, so they export in the daemon's namespace as
// dacd_collections_* families.
func flatten(name string) string {
	flat := strings.NewReplacer(".", "_", "-", "_").Replace(name)
	if strings.HasPrefix(name, "collections.") {
		return "dacd_" + flat
	}
	return flat
}
