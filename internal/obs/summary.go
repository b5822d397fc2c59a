package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary renders the human-readable stage-by-stage report behind the
// CLIs' -v flag: one row per span stage (the names of the trace spans that
// reported here) with latency statistics, followed
// by every non-span counter, gauge, and value histogram. An empty or nil
// registry renders the empty string.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var stages []string
	for name := range r.stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)

	var sb strings.Builder
	if len(stages) > 0 {
		fmt.Fprintf(&sb, "%-12s %8s %10s %10s %10s %10s %10s  %s\n",
			"stage", "runs", "total", "mean", "p50", "p90", "max", "slowest")
		for _, name := range stages {
			st := r.stages[name]
			h := st.hist
			n := h.Count()
			if n == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%-12s %8d %10s %10s %10s %10s %10s  %s\n",
				name, n, fmtUs(h.Sum()), fmtUs(h.Sum()/n),
				fmtUs(h.Quantile(0.5)), fmtUs(h.Quantile(0.9)),
				fmtUs(h.max.Load()), st.slowTask)
		}
	}

	var counterNames []string
	for name := range r.counters {
		if isSpanMetric(name) {
			continue // rendered as the runs column above
		}
		counterNames = append(counterNames, name)
	}
	sort.Strings(counterNames)
	if len(counterNames) > 0 {
		fmt.Fprintln(&sb, "counters")
		for _, name := range counterNames {
			fmt.Fprintf(&sb, "  %-38s %12d\n", name, r.counters[name].Value())
		}
	}

	var gaugeNames []string
	for name := range r.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	sort.Strings(gaugeNames)
	if len(gaugeNames) > 0 {
		fmt.Fprintln(&sb, "gauges")
		for _, name := range gaugeNames {
			fmt.Fprintf(&sb, "  %-38s %12d\n", name, r.gauges[name].Value())
		}
	}

	var histNames []string
	for name := range r.hists {
		if !isSpanMetric(name) {
			histNames = append(histNames, name)
		}
	}
	sort.Strings(histNames)
	if len(histNames) > 0 {
		fmt.Fprintln(&sb, "distributions")
		for _, name := range histNames {
			h := r.hists[name]
			n := h.Count()
			if n == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-38s n=%d sum=%d min=%d p50=%d p90=%d max=%d\n",
				name, n, h.Sum(), h.min.Load(), h.Quantile(0.5), h.Quantile(0.9), h.max.Load())
		}
	}
	return sb.String()
}

// isSpanMetric reports whether name is one of the span.<stage>.us /
// span.<stage>.count series ObserveSpan maintains.
func isSpanMetric(name string) bool {
	return strings.HasPrefix(name, "span.") &&
		(strings.HasSuffix(name, ".us") || strings.HasSuffix(name, ".count"))
}

// fmtUs renders a microsecond quantity as a compact duration.
func fmtUs(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}
