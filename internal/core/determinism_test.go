package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/witness"
)

// The determinism suite pins the PR's central contract: every result a user
// can observe — mined changes, filter stats, survivors, dendrograms, checker
// violations — is byte-identical at any -workers value. CI runs these under
// -race at -cpu=1,4 (the names all match -run 'Determinism').

func determinismCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: 7, Scale: 0.4, Projects: 20, ExtraProjects: 3})
}

// pipelineFingerprint runs the full mining pipeline under the given options
// and serializes everything observable about the result.
func pipelineFingerprint(t *testing.T, c *corpus.Corpus, opts Options) string {
	t.Helper()
	return pipelineFingerprintWith(t, c, opts, nil)
}

// pipelineFingerprintWith is pipelineFingerprint with the dendrogram built by
// clusterFn instead of DiffCode.ClusterChanges (nil keeps the pipeline's own).
func pipelineFingerprintWith(t *testing.T, c *corpus.Corpus, opts Options, clusterFn func([]change.UsageChange) *cluster.Node) string {
	t.Helper()
	var sb strings.Builder
	d := New(opts)
	analyzed := d.MineCorpus(c)
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
		r := d.RunClass(analyzed, class)
		fmt.Fprintf(&sb, "%s stats=%+v\n", class, r.Stats)
		for _, uc := range r.Survivors {
			fmt.Fprintf(&sb, "  survivor [%s %s] %s\n", uc.Meta.Project, uc.Meta.Commit, uc.String())
		}
		if len(r.Survivors) > 1 {
			cl := clusterFn
			if cl == nil {
				cl = d.ClusterChanges
			}
			sb.WriteString(cluster.Render(cl(r.Survivors), func(i int) string {
				return r.Survivors[i].Meta.Commit
			}))
		}
	}
	fmt.Fprintf(&sb, "ledger=%d\n", d.Ledger().Len())
	return sb.String()
}

func sortedKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestDeterminismMiningPipeline asserts MineCorpus + RunClass +
// ClusterChanges produce identical results at workers 1, 2, and 8.
func TestDeterminismMiningPipeline(t *testing.T) {
	c := determinismCorpus()
	want := pipelineFingerprint(t, c, Options{Workers: 1})
	if !strings.Contains(want, "survivor") {
		t.Fatalf("corpus produced no survivors; fingerprint exercises too little")
	}
	for _, w := range []int{2, 8} {
		if got := pipelineFingerprint(t, c, Options{Workers: w}); got != want {
			t.Errorf("workers=%d: pipeline fingerprint differs from workers=1\ngot:\n%.800s\nwant:\n%.800s", w, got, want)
		}
	}
}

// TestDeterminismEvaluationWorkers asserts the evaluation's Figure 6, 7
// and 8 outputs, elicited rules and ledger are identical at workers 1 and
// 4, and that every figure reads one extraction per class: after all of
// them ran, the extract.usage_changes counter equals Figure 6's total.
func TestDeterminismEvaluationWorkers(t *testing.T) {
	c := determinismCorpus()
	type outputs struct {
		Fig6     [][]string
		Fig7     []Figure7Row
		Fig8     string
		Elicited []string
		Ledger   []resilience.Entry
	}
	run := func(workers int) outputs {
		reg := obs.NewRegistry()
		e := NewEvaluation(c, Options{Workers: workers, Metrics: reg})
		o := outputs{Fig6: e.Figure6().Rows, Fig7: e.Figure7Data(), Fig8: e.Figure8().Rendering}
		for _, er := range e.ElicitRules() {
			o.Elicited = append(o.Elicited, fmt.Sprintf("%s %d %d %v %s", er.Class, er.Support, er.Reversals, er.Members, er.Rule.Formula))
		}
		h := e.ComputeHeadline(nil)
		o.Ledger = e.DiffCode.Ledger().Entries()
		if got := reg.Counter("extract.usage_changes").Value(); got != int64(h.TotalChanges) {
			t.Errorf("workers=%d: extract.usage_changes = %d, want Figure 6's total %d (one extraction per class)", workers, got, h.TotalChanges)
		}
		return o
	}
	want := run(1)
	if len(want.Elicited) == 0 || want.Fig8 == "" {
		t.Fatalf("corpus elicited %d rules and rendered Figure 8 %q; the comparison exercises too little", len(want.Elicited), want.Fig8)
	}
	if got := run(4); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=4 evaluation differs from workers=1\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestDeterminismDistCacheOnOff asserts the whole observable pipeline —
// survivors, dendrogram renderings, ledger — is byte-identical whether the
// dendrograms come from the pipeline's memoized distance engine or from the
// uncached reference kernels (cluster.AgglomeratePool), at every worker
// count: the cache changes how often kernels run, never what they return.
func TestDeterminismDistCacheOnOff(t *testing.T) {
	// Not determinismCorpus: that one leaves every class with at most one
	// survivor, so ClusterChanges would never run. This configuration gives
	// Cipher and SecretKeySpec multi-survivor classes, putting real
	// dendrograms (rendered into the fingerprint) on both sides of the
	// comparison.
	c := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.5, Projects: 60, ExtraProjects: 3})
	uncached := func(ucs []change.UsageChange) *cluster.Node {
		return cluster.AgglomeratePool(ucs, cluster.Complete, nil, nil)
	}
	want := pipelineFingerprintWith(t, c, Options{Workers: 1}, uncached)
	if !strings.Contains(want, "survivor") {
		t.Fatalf("corpus produced no survivors; fingerprint exercises too little")
	}
	if !strings.Contains(want, "h=") {
		t.Fatalf("corpus produced no dendrogram; the cached/uncached comparison exercises too little")
	}
	for _, w := range []int{1, 2, 8} {
		if got := pipelineFingerprint(t, c, Options{Workers: w}); got != want {
			t.Errorf("workers=%d: cached pipeline fingerprint differs from uncached\ngot:\n%.800s\nwant:\n%.800s", w, got, want)
		}
	}
}

// TestDeterminismArtifactCacheOnOff pins the acceptance contract of the
// artifact store: the whole observable pipeline is byte-identical with no
// store, with a cold disk-backed store, and with a fully warm store over the
// same directory, at workers 1, 2, and 8. The cache changes how often the
// pipeline computes, never what it returns — a warm hit reconstructs exactly
// the extraction the live run would produce.
func TestDeterminismArtifactCacheOnOff(t *testing.T) {
	c := determinismCorpus()
	dir := t.TempDir()
	want := pipelineFingerprint(t, c, Options{Workers: 1})
	if !strings.Contains(want, "survivor") {
		t.Fatalf("corpus produced no survivors; fingerprint exercises too little")
	}
	for _, w := range []int{1, 2, 8} {
		cold := pipelineFingerprint(t, c, Options{Workers: w,
			Artifacts: artifact.New(artifact.Config{Dir: dir})})
		if cold != want {
			t.Errorf("workers=%d: cold-store fingerprint differs from storeless\ngot:\n%.800s\nwant:\n%.800s", w, cold, want)
		}
		// A fresh Store over the same directory: everything resolves from
		// disk artifacts written by the cold pass above.
		warm := pipelineFingerprint(t, c, Options{Workers: w,
			Artifacts: artifact.New(artifact.Config{Dir: dir})})
		if warm != want {
			t.Errorf("workers=%d: warm-store fingerprint differs from storeless\ngot:\n%.800s\nwant:\n%.800s", w, warm, want)
		}
	}
}

// mustCheck runs one CheckRequest under ctx; any error fails the test.
func mustCheck(t testing.TB, ctx context.Context, c *CryptoChecker, sources map[string]string, rctx rules.Context, why bool) *CheckOutcome {
	t.Helper()
	out, err := c.CheckRequest(ctx, sources, rctx, why)
	if err != nil {
		t.Fatalf("CheckRequest: %v", err)
	}
	return out
}

// checkerFingerprint checks every project (why off) under the given
// options and serializes the violations in rule-set order.
func checkerFingerprint(t *testing.T, c *corpus.Corpus, opts Options) string {
	var sb strings.Builder
	checker := NewChecker(nil, opts)
	for _, p := range c.Projects {
		fmt.Fprintf(&sb, "%s:\n", p.Name)
		writeViolations(&sb, mustCheck(t, context.Background(), checker, p.Files, ContextOf(p), false).Violations)
	}
	return sb.String()
}

// writeViolations serializes violations in the order given, one per line.
func writeViolations(sb *strings.Builder, vs []rules.Violation) {
	for _, v := range vs {
		fmt.Fprintf(sb, "  %s", v.Rule.ID)
		for _, o := range v.Objs {
			fmt.Fprintf(sb, " %s@%d", o.SiteLabel(), o.Site.Line)
		}
		sb.WriteString("\n")
	}
}

// TestDeterminismCheckSources asserts the checker's violation list — rule
// order and witness order — is identical at workers 1, 2, and 8.
func TestDeterminismCheckSources(t *testing.T) {
	c := determinismCorpus()
	want := checkerFingerprint(t, c, Options{Workers: 1})
	if !strings.Contains(want, "R") {
		t.Fatalf("no violations found; fingerprint exercises too little")
	}
	for _, w := range []int{2, 8} {
		if got := checkerFingerprint(t, c, Options{Workers: w}); got != want {
			t.Errorf("workers=%d: checker fingerprint differs from workers=1", w)
		}
	}
}

// TestDeterminismProvenanceObservationOnly pins the -why invariant at the
// library level: enabling provenance tracking changes nothing about the
// violation list — same rules, same witnessing objects, same order — at
// every worker count. Provenance decorates abstract values; it never feeds
// back into the lattice, the joins, or the rule predicates.
func TestDeterminismProvenanceObservationOnly(t *testing.T) {
	c := determinismCorpus()
	want := checkerFingerprint(t, c, Options{Workers: 1})
	if !strings.Contains(want, "R") {
		t.Fatalf("no violations found; fingerprint exercises too little")
	}
	for _, w := range []int{1, 2, 8} {
		got := checkerFingerprint(t, c, Options{Workers: w, Analysis: analysis.Options{Provenance: true}})
		if got != want {
			t.Errorf("workers=%d: provenance-on checker fingerprint differs from provenance-off\ngot:\n%.800s\nwant:\n%.800s", w, got, want)
		}
	}
}

// whyFingerprint checks every project with why on and serializes the
// sorted violations plus every rendered witness trace.
func whyFingerprint(t *testing.T, c *corpus.Corpus, opts Options) string {
	var sb strings.Builder
	checker := NewChecker(nil, opts)
	for _, p := range c.Projects {
		fmt.Fprintf(&sb, "%s:\n", p.Name)
		out := mustCheck(t, context.Background(), checker, p.Files, ContextOf(p), true)
		for _, v := range out.Violations {
			fmt.Fprintf(&sb, "  %s", v.Rule.ID)
			for _, o := range v.Objs {
				fmt.Fprintf(&sb, " %s@%d", o.SiteLabel(), o.Site.Line)
			}
			sb.WriteString("\n")
		}
		sb.WriteString(witness.Render(out.Traces))
	}
	return sb.String()
}

// TestDeterminismWitnessTraces asserts the full -why surface — the
// location-sorted violation list and every rendered witness trace — is
// byte-identical at workers 1, 2, and 8.
func TestDeterminismWitnessTraces(t *testing.T) {
	c := determinismCorpus()
	want := whyFingerprint(t, c, Options{Workers: 1})
	if !strings.Contains(want, "sink:") {
		t.Fatalf("no witness traces produced; fingerprint exercises too little")
	}
	for _, w := range []int{1, 2, 8} {
		if got := whyFingerprint(t, c, Options{Workers: w}); got != want {
			t.Errorf("workers=%d: -why fingerprint differs from workers=1", w)
		}
	}
}
