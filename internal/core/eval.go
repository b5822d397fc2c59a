package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/usage"
)

// Evaluation bundles a mined-and-analyzed corpus so that several figures
// can be regenerated without re-running the expensive analysis.
type Evaluation struct {
	DiffCode *DiffCode
	Corpus   *corpus.Corpus
	Analyzed []*AnalyzedChange

	mu      sync.Mutex
	classes map[string]*classEntry
}

// classEntry is one target class's part of the evaluation's extraction
// table: rows[i] holds the usage changes of Analyzed[i] (nil when that
// change does not use the class or its extraction was skipped), and res
// the filter pipeline's result over those rows.
type classEntry struct {
	rows [][]change.UsageChange
	res  ClassPipelineResult
}

// NewEvaluation mines and analyzes the corpus once.
func NewEvaluation(c *corpus.Corpus, opts Options) *Evaluation {
	return NewEvaluationCtx(context.Background(), c, opts)
}

// NewEvaluationCtx is NewEvaluation with trace propagation: under a traced
// ctx the mining run attaches its span tree (mine → analyze → per-change
// spans) to the current span. On an untraced ctx this is exactly
// NewEvaluation. It extracts no usage changes: the first figure that needs
// a class extracts that class from Analyzed, once per evaluation (see
// table), so a caller may still replace Analyzed before the first figure.
func NewEvaluationCtx(ctx context.Context, c *corpus.Corpus, opts Options) *Evaluation {
	// The evaluation harness re-classifies changes against both raw analysis
	// results (Figure 7 needs Old/New), which warm artifact hits do not
	// carry — so the harness always analyzes live.
	opts.Artifacts = nil
	d := New(opts)
	return &Evaluation{
		DiffCode: d,
		Corpus:   c,
		Analyzed: d.MineCorpusCtx(ctx, c),
		classes:  map[string]*classEntry{},
	}
}

// table returns the class's entry of the extraction table, extracting and
// filtering it on first use. Every figure, the multiplicity vote and
// provenance read these rows, so each (change, class) pair is extracted
// once per evaluation and a change whose extraction was skipped is missing
// from all of them alike.
func (e *Evaluation) table(class string) *classEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ce, ok := e.classes[class]; ok {
		return ce
	}
	ce := &classEntry{rows: e.DiffCode.extractRows(context.Background(), e.Analyzed, class)}
	ce.res = e.DiffCode.filterRows(context.Background(), ce.rows, class)
	e.classes[class] = ce
	return ce
}

// classResult is the class's filter pipeline result.
func (e *Evaluation) classResult(class string) *ClassPipelineResult {
	return &e.table(class).res
}

// ---------------------------------------------------------------------------
// Figure 6 — usage changes per target class after each filter stage
// ---------------------------------------------------------------------------

// Figure6 regenerates the filtering table.
func (e *Evaluation) Figure6() *report.Table {
	t := &report.Table{
		Title:  "Figure 6: usage changes per target API class after abstraction and filtering",
		Header: []string{"Target API Class", "Usage Changes", "fsame", "fadd", "frem", "fdup"},
	}
	totalAll, totalKept := 0, 0
	for _, class := range cryptoapi.TargetClasses {
		r := e.classResult(class)
		s := r.Stats
		t.AddRow(class, fmt.Sprint(s.Total), fmt.Sprint(s.AfterSame),
			fmt.Sprint(s.AfterAdd), fmt.Sprint(s.AfterRem), fmt.Sprint(s.AfterDup))
		totalAll += s.Total
		totalKept += s.AfterDup
	}
	if totalAll > 0 {
		t.AddNote("Filtered as non-semantic or duplicate: %s of %d usage changes.",
			report.Pct(totalAll-totalKept, totalAll), totalAll)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 7 — security fixes vs buggy changes under CL1–CL5
// ---------------------------------------------------------------------------

// Figure7Row is the per-rule, per-classification filter attrition.
type Figure7Row struct {
	Rule      string
	Type      rules.ChangeType
	Total     int
	ByFsame   int
	ByFadd    int
	ByFrem    int
	ByFdup    int
	Remaining int
}

// Figure7Data computes the classification table backing Figure 7 in one
// pass over the extraction table: each change with usage changes of a CL
// rule's class is classified once under that rule, and fdup counts the
// distinct survivor signatures per (rule, type).
func (e *Evaluation) Figure7Data() []Figure7Row {
	types := []rules.ChangeType{rules.SecurityFix, rules.BuggyChange, rules.NonSemantic}
	var out []Figure7Row
	for _, cl := range rules.CryptoLint() {
		acc := map[rules.ChangeType]*Figure7Row{}
		seen := map[rules.ChangeType]map[string]bool{}
		for _, typ := range types {
			acc[typ], seen[typ] = &Figure7Row{Rule: cl.ID, Type: typ}, map[string]bool{}
		}
		for i, ucs := range e.table(cl.Clauses[0].Class).rows {
			if len(ucs) == 0 {
				continue
			}
			a := e.Analyzed[i]
			typ := rules.Classify(cl, a.Old, a.New, rules.Context{})
			row := acc[typ]
			for j := range ucs {
				c := &ucs[j]
				row.Total++
				switch {
				case c.IsSame():
					row.ByFsame++
				case c.IsAddOnly():
					row.ByFadd++
				case c.IsRemoveOnly():
					row.ByFrem++
				default:
					row.Remaining++
					seen[typ][c.Key()] = true
				}
			}
		}
		for _, typ := range types {
			row := acc[typ]
			row.ByFdup = row.Remaining - len(seen[typ])
			row.Remaining = len(seen[typ])
			out = append(out, *row)
		}
	}
	return out
}

// Figure7 renders the classification table.
func (e *Evaluation) Figure7() *report.Table {
	t := &report.Table{
		Title:  "Figure 7: security fixes, buggy changes, and non-semantic changes under CL1-CL5",
		Header: []string{"Rule", "Type", "Total", "fsame", "fadd", "frem", "fdup", "Remaining"},
	}
	rows := e.Figure7Data()
	var fixes, bugs int
	for _, r := range rows {
		t.AddRow(r.Rule, r.Type.String(), fmt.Sprint(r.Total), fmt.Sprint(r.ByFsame),
			fmt.Sprint(r.ByFadd), fmt.Sprint(r.ByFrem), fmt.Sprint(r.ByFdup),
			fmt.Sprint(r.Remaining))
		switch r.Type {
		case rules.SecurityFix:
			fixes += r.Total
		case rules.BuggyChange:
			bugs += r.Total
		}
	}
	if fixes+bugs > 0 {
		t.AddNote("Rule-flipping code changes that are security fixes: %s (the paper counts pre-dedup changes).",
			report.Pct(fixes, fixes+bugs))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8 — dendrogram for the Cipher class
// ---------------------------------------------------------------------------

// Figure8Result carries the dendrogram and the detected ECB cluster.
type Figure8Result struct {
	Survivors  []change.UsageChange
	Dendrogram *cluster.Node
	// ECBCluster indexes survivors that form the "stop using ECB" cluster
	// eliciting rule R7.
	ECBCluster []int
	Rendering  string
}

// Figure8 clusters the surviving Cipher usage changes and locates the
// ECB→CBC/GCM cluster of the paper's Figure 8.
func (e *Evaluation) Figure8() *Figure8Result {
	r := e.classResult(cryptoapi.Cipher)
	root := e.DiffCode.ClusterChanges(r.Survivors)
	res := &Figure8Result{Survivors: r.Survivors, Dendrogram: root}
	if root == nil {
		return res
	}
	for _, cl := range root.Cut(0.75) {
		ecb := 0
		for _, i := range cl {
			if removesECB(r.Survivors[i]) {
				ecb++
			}
		}
		if ecb*2 > len(cl) && ecb >= 2 {
			res.ECBCluster = cl
			break
		}
	}
	res.Rendering = cluster.Render(root, func(i int) string {
		c := r.Survivors[i]
		return fmt.Sprintf("[%s] %s", c.Meta.Commit, summarize(c))
	})
	return res
}

// removesECB reports whether a usage change removes an (explicit or
// implicit) ECB-mode getInstance feature — "AES", "AES/ECB/...", or bare
// "DES" all run the block cipher in ECB.
func removesECB(c change.UsageChange) bool {
	for _, p := range c.Removed {
		if len(p) >= 3 && p[1] == "getInstance" {
			if s, ok := argString(p[2]); ok {
				if cryptoapi.ParseTransformation(s).IsECB() {
					return true
				}
			}
		}
	}
	return false
}

// argString extracts the quoted payload of an `argN:"..."` label.
func argString(label string) (string, bool) {
	i := strings.Index(label, `:"`)
	if i < 0 || !strings.HasSuffix(label, `"`) {
		return "", false
	}
	return label[i+2 : len(label)-1], true
}

// summarize renders a usage change on one line.
func summarize(c change.UsageChange) string {
	var parts []string
	for _, p := range c.Removed {
		parts = append(parts, "-"+strings.Join(p[1:], " "))
	}
	for _, p := range c.Added {
		parts = append(parts, "+"+strings.Join(p[1:], " "))
	}
	s := strings.Join(parts, "  ")
	if len(s) > 140 {
		s = s[:137] + "..."
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 9 — the elicited rules
// ---------------------------------------------------------------------------

// Figure9 renders the rule registry in the paper's notation.
func Figure9() *report.Table {
	t := &report.Table{
		Title:  "Figure 9: security rules derived from security fixes applied to the Java Crypto API",
		Header: []string{"ID", "Description", "Rule"},
	}
	for _, r := range rules.All() {
		t.AddRow(r.ID, r.Description, figure9Notation[r.ID])
	}
	return t
}

// figure9Notation is each rule as the paper's Figure 9 writes it. It is
// display only: a rule runs its Formula, the DSL source every other surface
// prints, which spells out what the notation leaves implicit (R1 also flags
// MD5, R7 any block cipher in default ECB mode, R6 the Android gate).
var figure9Notation = map[string]string{
	"R1":  "MessageDigest : getInstance(X) ∧ X=SHA-1",
	"R2":  "PBEKeySpec : <init>(_,_,X,_) ∧ X<1000",
	"R3":  "SecureRandom : <init>(X) ∧ X≠SHA-1PRNG",
	"R4":  "SecureRandom : ¬getInstanceStrong",
	"R5":  "Cipher : getInstance(_,X) ∧ X≠BC",
	"R6":  "SecureRandom : <init>(_) ∧ ¬LPRNG ∧ MIN_SDK_VERSION≥16",
	"R7":  "Cipher : getInstance(X) ∧ (X=AES ∨ X=AES/ECB)",
	"R8":  "Cipher : getInstance(X) ∧ X=DES",
	"R9":  "IvParameterSpec : <init>(X) ∧ X≠⊤byte[]",
	"R10": "SecretKeySpec : <init>(X) ∧ X≠⊤byte[]",
	"R11": "PBEKeySpec : <init>(_,X,_,_) ∧ X≠⊤byte[]",
	"R12": "SecureRandom : setSeed(X) ∧ X≠⊤byte[]",
	"R13": "(Cipher : getInstance(X) ∧ startsWith(X,AES/CBC)) ∧ " +
		"(Cipher : getInstance(Y) ∧ Y=RSA) ∧ ¬(Mac : getInstance(Z) ∧ startsWith(Z,Hmac))",
}

// ---------------------------------------------------------------------------
// Figure 10 — rule violations across projects
// ---------------------------------------------------------------------------

// Figure10Row is the per-rule applicability/matching outcome.
type Figure10Row struct {
	Rule       string
	Applicable int
	Matching   int
}

// Figure10Result holds the checker evaluation.
type Figure10Result struct {
	Projects           int
	Rows               []Figure10Row
	ViolatedAtLeastOne int
}

// Figure10 runs CryptoChecker over every project snapshot.
func (e *Evaluation) Figure10() *Figure10Result {
	return CheckCorpus(e.Corpus, e.DiffCode.Options())
}

// CheckCorpus evaluates the 13 rules over all project snapshots of a
// corpus (training + held-out) on the worker pool (one project per task,
// ordered fan-in). Forks are excluded, as in the paper's project selection
// (§6.1: "excluding forks").
func CheckCorpus(c *corpus.Corpus, opts Options) *Figure10Result {
	opts = opts.withDefaults()
	all := rules.All()
	var projects []*corpus.Project
	for _, p := range c.Projects {
		if p.ForkOf == "" {
			projects = append(projects, p)
		}
	}
	type projOutcome struct {
		applicable map[string]bool
		matching   map[string]bool
	}
	outcomes := parallel.Map(opts.pool(), context.Background(), len(projects), func(i int) projOutcome {
		p := projects[i]
		res := analysis.Analyze(analysis.ParseProgram(p.Files), opts.Analysis)
		ctx := ContextOf(p)
		o := projOutcome{applicable: map[string]bool{}, matching: map[string]bool{}}
		for _, r := range all {
			if r.Applicable(res, ctx) {
				o.applicable[r.ID] = true
			}
			if ok, _ := r.Matches(res, ctx); ok {
				o.matching[r.ID] = true
			}
		}
		return o
	})
	res := &Figure10Result{Projects: len(projects)}
	for _, r := range all {
		row := Figure10Row{Rule: r.ID}
		for _, o := range outcomes {
			if o.applicable[r.ID] {
				row.Applicable++
			}
			if o.matching[r.ID] {
				row.Matching++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, o := range outcomes {
		if len(o.matching) > 0 {
			res.ViolatedAtLeastOne++
		}
	}
	return res
}

// Table renders the Figure 10 result.
func (r *Figure10Result) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Figure 10: rule violations for the %d analyzed projects", r.Projects),
		Header: []string{"Rule", "Applicable (% of total)", "Matching (% of appl.)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Rule, report.Count(row.Applicable, r.Projects),
			report.Count(row.Matching, row.Applicable))
	}
	t.AddNote("Projects violating at least one rule: %s.",
		report.Pct(r.ViolatedAtLeastOne, r.Projects))
	return t
}

// ---------------------------------------------------------------------------
// Headline numbers (§1 / §6 claims)
// ---------------------------------------------------------------------------

// Headline summarizes the paper's three headline claims against this run.
type Headline struct {
	FilteredPct    float64 // >99% of usage changes filtered
	FixPct         float64 // >80% of rule-flipping semantic changes are fixes
	ViolatedPct    float64 // >57% of projects violate ≥1 rule
	TotalChanges   int
	TotalSurviving int
}

// ComputeHeadline derives the headline numbers from figure runs.
func (e *Evaluation) ComputeHeadline(fig10 *Figure10Result) Headline {
	h := Headline{}
	for _, class := range cryptoapi.TargetClasses {
		s := e.classResult(class).Stats
		h.TotalChanges += s.Total
		h.TotalSurviving += s.AfterDup
	}
	if h.TotalChanges > 0 {
		h.FilteredPct = 100 * float64(h.TotalChanges-h.TotalSurviving) / float64(h.TotalChanges)
	}
	// The paper's ">80% are security fixes" claim counts rule-flipping code
	// changes before deduplication (its Figure 7 Total column).
	var fixes, bugs int
	for _, row := range e.Figure7Data() {
		switch row.Type {
		case rules.SecurityFix:
			fixes += row.Total
		case rules.BuggyChange:
			bugs += row.Total
		}
	}
	if fixes+bugs > 0 {
		h.FixPct = 100 * float64(fixes) / float64(fixes+bugs)
	}
	if fig10 != nil && fig10.Projects > 0 {
		h.ViolatedPct = 100 * float64(fig10.ViolatedAtLeastOne) / float64(fig10.Projects)
	}
	return h
}

// SortedSurvivors returns the surviving changes of a class, ordered by
// provenance for stable output.
func (e *Evaluation) SortedSurvivors(class string) []change.UsageChange {
	r := e.classResult(class)
	out := append([]change.UsageChange{}, r.Survivors...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.Project != out[j].Meta.Project {
			return out[i].Meta.Project < out[j].Meta.Project
		}
		return out[i].Meta.Commit < out[j].Meta.Commit
	})
	return out
}

// AnalyzeSource analyzes a single-file program under the pipeline's
// effective analysis options: the defaults, the Metrics registry, and the
// summary table that New and NewChecker would use for the same Options.
func AnalyzeSource(src string, opts Options) *analysis.Result {
	return analysis.AnalyzeSource(src, opts.withDefaults().Analysis)
}

// BuildDAGs exposes usage-DAG construction at the facade level (used by
// the quickstart example).
func BuildDAGs(src string, class string, opts Options) []*usage.Graph {
	opts = opts.withDefaults()
	res := analysis.AnalyzeSource(src, opts.Analysis)
	return usage.BuildAll(res, class, opts.Depth)
}
