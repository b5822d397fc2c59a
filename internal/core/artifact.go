package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/cryptoapi"
	"repro/internal/javatok"
	"repro/internal/mining"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/usage"
	"repro/internal/witness"
)

// This file wires the content-addressed artifact store (internal/artifact)
// into the pipeline. Three artifact classes are cached:
//
//   - per-change analysis artifacts (KindAnalysis): the per-class usage
//     changes extracted from both versions, keyed by (old source, new
//     source, options fingerprint) — a warm corpus run re-analyzes only
//     new or changed commits;
//   - whole check outcomes (KindCheck): violations + witness traces, keyed
//     by sources, rule-set identity, rule context, and effective -why —
//     the analysis server's repeated-snippet fast path;
//   - per-file parse artifacts (KindParse) via
//     analysis.ParseProgramStoreCtx, keyed by content alone.
//
// The nil-store path is the exact pre-artifact pipeline, and a warm hit
// reconstructs byte-identical output: artifacts store only data every
// consumer derives its output from (usage paths, rule IDs, object sites,
// traces), never pointers into a live analysis.

// optFingerprint renders the option fields that influence analysis results
// into the artifact key material. Worker count and failure policy are
// deliberately absent — results are identical at any -workers value, so
// artifacts are shared across them.
func optFingerprint(o Options) string {
	a := o.Analysis.Normalized()
	return fmt.Sprintf("depth=%d;maxstates=%d;budgetsteps=%d;budgetwall=%d;prov=%t",
		o.Depth, a.MaxStates, o.BudgetSteps, int64(o.BudgetWall), a.Provenance)
}

// rulesFingerprint renders a rule set's identity: ID, formula, and
// description of every rule in evaluation order. Predicates are closures
// and cannot be hashed; the formula string is their authored identity, and
// editing a rule's behavior without touching its formula or description is
// the one cache-correctness obligation left with the rule author.
func rulesFingerprint(ruleSet []*rules.Rule) string {
	var sb strings.Builder
	for _, r := range ruleSet {
		sb.WriteString(r.ID)
		sb.WriteByte(0x1f)
		sb.WriteString(r.Formula)
		sb.WriteByte(0x1f)
		sb.WriteString(r.Description)
		sb.WriteByte(0x1e)
	}
	return sb.String()
}

// phaseError carries the pipeline phase of a failed analysis through the
// store's single-flight layer (waiters of a shared failing compute still
// ledger the right phase).
type phaseError struct {
	phase resilience.Phase
	err   error
}

func (e *phaseError) Error() string { return e.err.Error() }
func (e *phaseError) Unwrap() error { return e.err }

// ---------------------------------------------------------------------------
// Per-change analysis artifacts
// ---------------------------------------------------------------------------

// usagePaths is the serialized form of one change.UsageChange, minus the
// class (the map key) and the meta (injected at instantiation, so forks and
// duplicate commits share one artifact).
type usagePaths struct {
	Rem []usage.Path `json:"rem,omitempty"`
	Add []usage.Path `json:"add,omitempty"`
}

// changeArtifact is the cached outcome of analyzing one code change: the
// usage changes of every target class either version mentions, extracted at
// the pipeline's depth. Filtering, deduplication, and clustering all derive
// from these paths, so a warm run needs neither the ASTs nor the abstract
// interpretation.
type changeArtifact struct {
	Classes map[string][]usagePaths `json:"classes"`
}

func decodeChangeArtifact(b []byte) (any, error) {
	var art changeArtifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, err
	}
	if art.Classes == nil {
		art.Classes = map[string][]usagePaths{}
	}
	return &art, nil
}

// instantiate rebuilds the usage changes of one class, stamping the
// caller's meta. The path slices are shared read-only with the artifact —
// every downstream consumer (filter, cluster, report) only iterates them.
func (art *changeArtifact) instantiate(class string, meta change.Meta) []change.UsageChange {
	ps := art.Classes[class]
	if len(ps) == 0 {
		return nil
	}
	out := make([]change.UsageChange, len(ps))
	for i, p := range ps {
		out[i] = change.UsageChange{Class: class, Removed: p.Rem, Added: p.Add, Meta: meta}
	}
	return out
}

// buildChangeArtifact extracts every used class of a freshly analyzed
// change into artifact form. A panic during extraction makes the change
// uncacheable (ok=false) rather than a poisoned artifact: the live results
// stay on the AnalyzedChange and RunClass reproduces — and ledgers — the
// extraction failure exactly as the storeless pipeline would.
func (d *DiffCode) buildChangeArtifact(a *AnalyzedChange, cc mining.CodeChange) (*changeArtifact, bool) {
	art := &changeArtifact{Classes: map[string][]usagePaths{}}
	for _, class := range cryptoapi.TargetClasses {
		if !mining.UsesClass(cc.Old, class) && !mining.UsesClass(cc.New, class) {
			continue
		}
		class := class
		err := resilience.Guard("artifact "+class, func() error {
			ucs := change.Extract(a.Old, a.New, class, d.opts.Depth, change.Meta{})
			ps := make([]usagePaths, len(ucs))
			for i, uc := range ucs {
				ps[i] = usagePaths{Rem: uc.Removed, Add: uc.Added}
			}
			art.Classes[class] = ps
			return nil
		})
		if err != nil {
			return nil, false
		}
	}
	return art, true
}

// changeOutcome is what one analyzed change's store flight resolves to:
// the artifact (non-nil on every cacheable success) and — on a cold
// compute — the live analysis results, kept so extraction-time failures
// and result-consuming callers see exactly the storeless pipeline.
type changeOutcome struct {
	art      *changeArtifact
	old, new *analysis.Result
}

// analyzedOutcome resolves one change through the artifact store: warm hits
// return the artifact, misses run the live analysis under per-key
// single-flight (a duplicate-heavy batch analyzes each distinct content
// hash once at any worker count) and cache the extraction.
func (d *DiffCode) analyzedOutcome(ctx context.Context, cc mining.CodeChange) (*changeOutcome, resilience.Phase, error) {
	st := d.opts.Artifacts
	k := artifact.NewKey(artifact.KindAnalysis, d.optFP, cc.Old, cc.New)
	v, err := st.Do(artifact.KindAnalysis, k, func() (any, error) {
		if av, ok := st.Get(artifact.KindAnalysis, k, decodeChangeArtifact); ok {
			return &changeOutcome{art: av.(*changeArtifact)}, nil
		}
		d.opts.Metrics.Counter("artifact.analysis.computes").Inc()
		a, phase, err := d.analyzeChangeLive(ctx, cc)
		if err != nil {
			return nil, &phaseError{phase: phase, err: err}
		}
		oc := &changeOutcome{old: a.Old, new: a.New}
		if art, ok := d.buildChangeArtifact(a, cc); ok {
			oc.art = art
			st.Put(artifact.KindAnalysis, k, art, func() ([]byte, error) { return json.Marshal(art) })
		}
		return oc, nil
	})
	if err != nil {
		var pe *phaseError
		if errors.As(err, &pe) {
			return nil, pe.phase, pe.err
		}
		return nil, resilience.PhaseAnalyze, err
	}
	return v.(*changeOutcome), "", nil
}

// ---------------------------------------------------------------------------
// Check-outcome artifacts
// ---------------------------------------------------------------------------

// checkObj is the serialized identity of one witnessing abstract object —
// exactly the fields every consumer renders (SiteLabel, site line/column).
type checkObj struct {
	ID   int         `json:"id"`
	Type string      `json:"type"`
	Site javatok.Pos `json:"site"`
}

// checkViolation references its rule by ID; reconstruction resolves the ID
// against the checker's live rule set, so a cached outcome always carries
// the current rule metadata.
type checkViolation struct {
	Rule string     `json:"rule"`
	Objs []checkObj `json:"objs"`
}

// checkArtifact is a whole cached check outcome. Traces round-trip as-is
// (they are plain renderable data); violation evidence does not need to —
// it is consumed at witness-collection time, and the traces are stored
// post-collection.
type checkArtifact struct {
	Violations []checkViolation `json:"violations"`
	Traces     []witness.Trace  `json:"traces,omitempty"`
}

func decodeCheckArtifact(b []byte) (any, error) {
	var art checkArtifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, err
	}
	return &art, nil
}

func buildCheckArtifact(out *CheckOutcome) *checkArtifact {
	art := &checkArtifact{Traces: out.Traces}
	for _, v := range out.Violations {
		cv := checkViolation{Rule: v.Rule.ID, Objs: make([]checkObj, len(v.Objs))}
		for i, o := range v.Objs {
			cv.Objs[i] = checkObj{ID: o.ID, Type: o.Type, Site: o.Site}
		}
		art.Violations = append(art.Violations, cv)
	}
	return art
}

// reconstructCheck rebuilds a CheckOutcome from its artifact. Result stays
// nil — the analysis never ran; a caller needing the raw result runs
// without outcome caching (cryptochecker -v, whose rules.Explain renders
// from it, builds its checker with a nil Artifacts store and passes the
// store to Options.Summaries only).
func (c *CryptoChecker) reconstructCheck(art *checkArtifact) *CheckOutcome {
	byID := make(map[string]*rules.Rule, len(c.Rules))
	for _, r := range c.Rules {
		byID[r.ID] = r
	}
	out := &CheckOutcome{Traces: art.Traces}
	for _, cv := range art.Violations {
		r := byID[cv.Rule]
		if r == nil {
			// A rule that vanished from the live set (key collision across
			// mismatched fingerprints cannot happen; this is belt and
			// braces) — drop the stale violation rather than panic.
			continue
		}
		objs := make([]*absdom.AObj, len(cv.Objs))
		for i, o := range cv.Objs {
			objs[i] = &absdom.AObj{ID: o.ID, Type: o.Type, Site: o.Site}
		}
		out.Violations = append(out.Violations, rules.Violation{Rule: r, Objs: objs})
	}
	return out
}

// checkKey derives the content address of one check: options, rule set,
// rule context, effective -why (post-degrade), and the sorted source
// bundle.
func (c *CryptoChecker) checkKey(sources map[string]string, rctx rules.Context, why bool) artifact.Key {
	parts := make([]string, 0, 3+2*len(sources))
	parts = append(parts, c.optFP, c.rulesFP,
		fmt.Sprintf("android=%t;minsdk=%d;lprng=%t;why=%t", rctx.Android, rctx.MinSDKVersion, rctx.HasLPRNG, why))
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, n, sources[n])
	}
	return artifact.NewKey(artifact.KindCheck, parts...)
}

// checkOutcome dispatches one check through the artifact store; with no
// store it is exactly the live check. The leader of a store flight and its
// concurrent waiters share the live outcome (Result included); warm hitters
// get the artifact and reconstruct. Errors are never cached — a panicking
// snippet or an exhausted budget (whose partial outcome still comes back)
// re-runs on retry.
func (c *CryptoChecker) checkOutcome(ctx context.Context, sources map[string]string, rctx rules.Context, why bool) (*CheckOutcome, error) {
	st := c.opts.Artifacts
	if st == nil {
		return c.checkLive(ctx, sources, rctx, why)
	}
	k := c.checkKey(sources, rctx, why)
	v, err := st.Do(artifact.KindCheck, k, func() (any, error) {
		if av, ok := st.Get(artifact.KindCheck, k, decodeCheckArtifact); ok {
			return av, nil
		}
		out, err := c.checkLive(ctx, sources, rctx, why)
		if err == nil {
			art := buildCheckArtifact(out)
			st.Put(artifact.KindCheck, k, art, func() ([]byte, error) { return json.Marshal(art) })
		}
		return out, err
	})
	if art, ok := v.(*checkArtifact); ok {
		return c.reconstructCheck(art), nil
	}
	return v.(*CheckOutcome), err
}
