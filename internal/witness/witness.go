// Package witness reconstructs ordered witness traces for CryptoChecker
// violations: starting from the provenance chains carried by the abstract
// values the rule matched on, it linearizes each chain origin-first
// (the literal or parameter the offending value started as), walks it
// through the assignments, calls and joins the value flowed along, and ends
// at the sink call the rule fired on. Traces render as indented text or
// JSON; both forms are deterministic for a given analysis result.
package witness

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/rules"
)

// MaxRenderSteps bounds the definition steps rendered per trace; longer
// chains keep their origin and sink and elide the middle with a marker.
const MaxRenderSteps = 32

// Step is one definition step of a witness trace.
type Step struct {
	// Kind is the provenance step kind ("literal", "assign", ...), "sink"
	// for the final rule-matched call, or "elided" for a truncation marker.
	Kind string `json:"kind"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	What string `json:"what"`
	// Truncated marks a step whose upstream history was cut by the
	// interpreter's provenance depth cap.
	Truncated bool `json:"truncated,omitempty"`
}

// Trace is one ordered witness: origin first, sink call last. A violation
// yields one trace per (witnessing object, matched event) pair.
type Trace struct {
	Rule        string `json:"rule"`
	Description string `json:"description"`
	Object      string `json:"object"`
	Explanation string `json:"explanation,omitempty"`
	// Steps runs origin → intermediate definitions → sink; the last step
	// always has Kind "sink".
	Steps []Step `json:"steps"`
}

// Sink returns the trace's final step.
func (t Trace) Sink() Step { return t.Steps[len(t.Steps)-1] }

// ForViolation reconstructs the witness traces of one violation. Every
// trace is non-empty and ends at the sink call; when the matched values
// carry no provenance (tracking disabled, or a value the interpreter could
// not follow) the trace degrades to the sink step alone.
func ForViolation(v rules.Violation, res *analysis.Result, ctx rules.Context) []Trace {
	evidence := v.Evidence(res, ctx)
	var out []Trace
	for _, obj := range v.Objs {
		for _, m := range evidence[obj] {
			evs := res.Uses[obj]
			if m.EventIndex < 0 || m.EventIndex >= len(evs) {
				continue
			}
			ev := evs[m.EventIndex]
			tr := Trace{
				Rule:        v.Rule.ID,
				Description: v.Rule.Description,
				Object:      obj.SiteLabel(),
				Explanation: rules.Explanation(v.Rule.ID),
				Steps:       flowSteps(ev, m.Args),
			}
			tr.Steps = append(tr.Steps, Step{
				Kind: "sink",
				File: ev.File,
				Line: int(ev.Pos.Line),
				Col:  int(ev.Pos.Col),
				What: rules.FormatEvent(ev),
			})
			out = append(out, tr)
		}
	}
	return out
}

// Collect reconstructs traces for a whole violation list, preserving its
// order.
func Collect(vs []rules.Violation, res *analysis.Result, ctx rules.Context) []Trace {
	var out []Trace
	for _, v := range vs {
		out = append(out, ForViolation(v, res, ctx)...)
	}
	return out
}

// flowSteps linearizes the provenance of the evidence arguments of one
// event, origin-first. Chains of several arguments share one visited set,
// so a value reaching two argument positions renders once.
func flowSteps(ev analysis.Event, argIdx []int) []Step {
	var chains []*absdom.Prov
	for _, i := range argIdx {
		if i >= 0 && i < len(ev.Args) && ev.Args[i].Prov != nil {
			chains = append(chains, ev.Args[i].Prov)
		}
	}
	if len(chains) == 0 {
		// No argument positions named (the event itself is the evidence):
		// fall back to any argument that carries history.
		for _, a := range ev.Args {
			if a.Prov != nil {
				chains = append(chains, a.Prov)
			}
		}
	}
	var steps []Step
	visited := map[*absdom.Prov]bool{}
	for _, c := range chains {
		steps = appendChain(steps, c, visited)
	}
	return capSteps(steps)
}

// appendChain emits the DAG under p in topological, origin-first order.
func appendChain(steps []Step, p *absdom.Prov, visited map[*absdom.Prov]bool) []Step {
	if p == nil || visited[p] {
		return steps
	}
	visited[p] = true
	steps = appendChain(steps, p.Prev0, visited)
	steps = appendChain(steps, p.Prev1, visited)
	return append(steps, Step{
		Kind:      p.Kind.String(),
		File:      p.File(),
		Line:      int(p.Line),
		Col:       int(p.Col),
		What:      p.What(),
		Truncated: p.Truncated,
	})
}

// capSteps enforces MaxRenderSteps, keeping the head and tail of the flow
// and marking the elision. Capped output is exactly MaxRenderSteps steps
// (elision marker included), so a full trace never exceeds MaxRenderSteps+1
// once the sink step is appended.
func capSteps(steps []Step) []Step {
	if len(steps) <= MaxRenderSteps {
		return steps
	}
	head := (MaxRenderSteps - 1) / 2
	tail := MaxRenderSteps - 1 - head
	elided := len(steps) - head - tail
	out := make([]Step, 0, MaxRenderSteps)
	out = append(out, steps[:head]...)
	out = append(out, Step{Kind: "elided", What: fmt.Sprintf("%d steps elided", elided)})
	out = append(out, steps[len(steps)-tail:]...)
	return out
}

// Render formats traces as indented text, one block per trace.
func Render(traces []Trace) string {
	var sb strings.Builder
	for i, t := range traces {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s: %s [%s]\n", t.Rule, t.Description, t.Object)
		for _, s := range t.Steps {
			fmt.Fprintf(&sb, "    %s", renderStep(s))
			sb.WriteByte('\n')
		}
		if t.Explanation != "" {
			fmt.Fprintf(&sb, "  why: %s\n", t.Explanation)
		}
	}
	return sb.String()
}

func renderStep(s Step) string {
	var sb strings.Builder
	switch s.Kind {
	case "sink":
		sb.WriteString("sink: ")
	case "elided":
		sb.WriteString("... ")
	default:
		sb.WriteString(s.Kind)
		sb.WriteString(": ")
	}
	sb.WriteString(s.What)
	if s.Truncated {
		sb.WriteString(" (history truncated)")
	}
	if s.Line > 0 {
		fmt.Fprintf(&sb, "  at %s:%d:%d", s.File, s.Line, s.Col)
	}
	return sb.String()
}

// JSON renders traces as an indented JSON array (stable field order, "[]"
// for no traces).
func JSON(traces []Trace) string {
	if len(traces) == 0 {
		return "[]\n"
	}
	b, err := json.MarshalIndent(traces, "", "  ")
	if err != nil {
		// Trace is a plain value type; marshaling cannot fail.
		return "[]\n"
	}
	return string(b) + "\n"
}

// Observe records trace statistics on the metrics registry: total traces,
// total definition steps, and how many traces carry a depth-cap truncation.
func Observe(reg *obs.Registry, traces []Trace) {
	if reg == nil {
		return
	}
	var steps, truncated int64
	for _, t := range traces {
		steps += int64(len(t.Steps))
		for _, s := range t.Steps {
			if s.Truncated || s.Kind == "elided" {
				truncated++
				break
			}
		}
	}
	reg.Counter("witness.traces").Add(int64(len(traces)))
	reg.Counter("witness.steps").Add(steps)
	reg.Counter("witness.truncated").Add(truncated)
}
