package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/trace"
)

// fakeTracer builds a tracer with a deterministic ID source and clock, both
// safe for concurrent use (spans are minted from worker goroutines).
func fakeTracer() *trace.Tracer {
	var seq atomic.Uint64
	var tick atomic.Int64
	return trace.NewTracer(
		func() uint64 { return seq.Add(1) },
		func() time.Time { return time.Unix(0, tick.Add(1)*1000) },
	)
}

// tracedPipelineFingerprint runs the full mining pipeline under a traced
// context and returns both the observable output (pipelineFingerprint's
// format) and the trace tree's structural fingerprint.
func tracedPipelineFingerprint(t *testing.T, c *corpus.Corpus, opts Options) (output, traceFP string) {
	t.Helper()
	root := fakeTracer().Root("run")
	ctx := trace.NewContext(context.Background(), root)
	var sb strings.Builder
	d := New(opts)
	analyzed := d.MineCorpusCtx(ctx, c)
	fmt.Fprintf(&sb, "analyzed=%d\n", len(analyzed))
	for i, a := range analyzed {
		if a == nil {
			fmt.Fprintf(&sb, "[%d] nil\n", i)
			continue
		}
		fmt.Fprintf(&sb, "[%d] %s@%s:%s kind=%v old=%s new=%s\n",
			i, a.Meta.Project, a.Meta.Commit, a.Meta.File, a.Kind,
			sortedKeys(a.UsesOld), sortedKeys(a.UsesNew))
	}
	for _, class := range cryptoapi.TargetClasses {
		r := d.RunClassCtx(ctx, analyzed, class)
		fmt.Fprintf(&sb, "%s stats=%+v\n", class, r.Stats)
		for _, uc := range r.Survivors {
			fmt.Fprintf(&sb, "  survivor [%s %s] %s\n", uc.Meta.Project, uc.Meta.Commit, uc.String())
		}
		if len(r.Survivors) > 1 {
			node := d.ClusterChangesCtx(ctx, r.Survivors)
			sb.WriteString(cluster.Render(node, func(i int) string {
				return r.Survivors[i].Meta.Commit
			}))
		}
	}
	fmt.Fprintf(&sb, "ledger=%d\n", d.Ledger().Len())
	root.End()
	return sb.String(), trace.Snapshot(root).Fingerprint()
}

// TestDeterminismTraceFingerprint pins the tracing PR's two central
// contracts at once: (1) observation-only — the traced pipeline's observable
// output is byte-identical to the untraced run at every worker count — and
// (2) structural determinism — the trace tree's fingerprint (names, ordinal
// child order, categories, attributes like the interpreter step counts) is
// identical at workers 1, 2, and 8, because the worker pool keys sibling
// order by task index, never by completion order.
func TestDeterminismTraceFingerprint(t *testing.T) {
	c := determinismCorpus()
	untraced := pipelineFingerprint(t, c, Options{Workers: 1})
	wantOut, wantFP := tracedPipelineFingerprint(t, c, Options{Workers: 1})
	if wantOut != untraced {
		t.Errorf("traced pipeline output differs from untraced at workers=1\ngot:\n%.800s\nwant:\n%.800s", wantOut, untraced)
	}
	for _, w := range []int{2, 8} {
		gotOut, gotFP := tracedPipelineFingerprint(t, c, Options{Workers: w})
		if gotOut != untraced {
			t.Errorf("workers=%d: traced pipeline output differs from untraced workers=1", w)
		}
		if gotFP != wantFP {
			t.Errorf("workers=%d: trace fingerprint %s differs from workers=1 fingerprint %s", w, gotFP, wantFP)
		}
	}
}

// TestDeterminismCheckTrace pins the same two contracts for the checking
// entry point (CheckRequest): identical violations and identical trace
// fingerprints at workers 1, 2, and 8.
func TestDeterminismCheckTrace(t *testing.T) {
	c := determinismCorpus()
	run := func(workers int) (string, string) {
		root := fakeTracer().Root("check-run")
		ctx := trace.NewContext(context.Background(), root)
		var sb strings.Builder
		checker := NewChecker(nil, Options{Workers: workers})
		for _, p := range c.Projects {
			fmt.Fprintf(&sb, "%s:\n", p.Name)
			for _, v := range mustCheck(t, ctx, checker, p.Files, ContextOf(p), false).Violations {
				fmt.Fprintf(&sb, "  %s", v.Rule.ID)
				for _, o := range v.Objs {
					fmt.Fprintf(&sb, " %s@%d", o.SiteLabel(), o.Site.Line)
				}
				sb.WriteString("\n")
			}
		}
		root.End()
		return sb.String(), trace.Snapshot(root).Fingerprint()
	}
	untraced := checkerFingerprint(t, c, Options{Workers: 1})
	wantOut, wantFP := run(1)
	if wantOut != untraced {
		t.Errorf("traced checker output differs from untraced at workers=1")
	}
	if !strings.Contains(wantOut, "R") {
		t.Fatalf("no violations found; fingerprint exercises too little")
	}
	for _, w := range []int{2, 8} {
		gotOut, gotFP := run(w)
		if gotOut != untraced {
			t.Errorf("workers=%d: traced checker output differs from untraced workers=1", w)
		}
		if gotFP != wantFP {
			t.Errorf("workers=%d: check trace fingerprint %s differs from workers=1 fingerprint %s", w, gotFP, wantFP)
		}
	}
}
