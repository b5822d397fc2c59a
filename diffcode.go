package diffcode

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/mining"
	"repro/internal/resilience"
	"repro/internal/ruledsl"
	"repro/internal/rules"
	"repro/internal/textdiff"
	"repro/internal/usage"
)

// Target API class names (the paper's Figure 5).
const (
	Cipher          = cryptoapi.Cipher
	IvParameterSpec = cryptoapi.IvParameterSpec
	MessageDigest   = cryptoapi.MessageDigest
	SecretKeySpec   = cryptoapi.SecretKeySpec
	SecureRandom    = cryptoapi.SecureRandom
	PBEKeySpec      = cryptoapi.PBEKeySpec
)

// TargetClasses lists the six target classes in the paper's order.
func TargetClasses() []string { return append([]string{}, cryptoapi.TargetClasses...) }

// Re-exported pipeline types. See the internal packages for full method
// documentation; the aliases below form the supported public surface.
type (
	// Options configures analysis depth, inlining, and parallelism.
	Options = core.Options
	// DiffCode is the end-to-end mining pipeline.
	DiffCode = core.DiffCode
	// AnalyzedChange is a code change with both versions analyzed.
	AnalyzedChange = core.AnalyzedChange
	// UsageChange is the paper's (F−, F+) feature diff for one object.
	UsageChange = change.UsageChange
	// FilterStats counts survivors after each filter stage (fsame, fadd,
	// frem, fdup).
	FilterStats = change.FilterStats
	// Meta is the provenance of a mined change.
	Meta = change.Meta
	// Path is a usage-DAG feature path.
	Path = usage.Path
	// Graph is a rooted usage DAG (paper §3.4).
	Graph = usage.Graph
	// Dendrogram is a hierarchical-clustering tree node.
	Dendrogram = cluster.Node
	// Rule is a security rule t : φ (paper §6.3).
	Rule = rules.Rule
	// RuleContext carries project facts for context-sensitive rules (R6).
	RuleContext = rules.Context
	// Violation is a matched rule with witnesses.
	Violation = rules.Violation
	// ChangeType classifies a change as fix, bug, or non-semantic.
	ChangeType = rules.ChangeType
	// CryptoChecker checks programs against a rule set.
	CryptoChecker = core.CryptoChecker
	// CodeChange is a mined old/new source pair.
	CodeChange = mining.CodeChange
	// Corpus is a generated project data set.
	Corpus = corpus.Corpus
	// CorpusConfig parameterizes corpus generation.
	CorpusConfig = corpus.Config
	// Project is one repository (history + snapshot).
	Project = corpus.Project
	// Evaluation regenerates the paper's tables and figures.
	Evaluation = core.Evaluation
	// ElicitedRule is one automatically elicited rule: a cluster of mined
	// fixes plus the rule suggested from its representative.
	ElicitedRule = core.ElicitedRule
	// FailureLedger records every change or project the pipeline skipped
	// instead of dying on (degraded-mode bookkeeping).
	FailureLedger = resilience.Ledger
	// FailureEntry is one recorded skip: task, phase, category, error.
	FailureEntry = resilience.Entry
)

// Change classification outcomes (paper §6.2).
const (
	NonSemantic = rules.NonSemantic
	SecurityFix = rules.SecurityFix
	BuggyChange = rules.BuggyChange
)

// New returns a DiffCode pipeline with the given options.
func New(opts Options) *DiffCode { return core.New(opts) }

// NewChecker returns a CryptoChecker; a nil rule set means all 13 rules.
func NewChecker(ruleSet []*Rule, opts Options) *CryptoChecker {
	return core.NewChecker(ruleSet, opts)
}

// Rules returns the 13 elicited security rules (Figure 9).
func Rules() []*Rule { return rules.All() }

// CryptoLintRules returns the five CryptoLint reference rules CL1–CL5.
func CryptoLintRules() []*Rule { return rules.CryptoLint() }

// RuleByID resolves R1..R13 or CL1..CL5; nil if unknown.
func RuleByID(id string) *Rule { return rules.ByID(id) }

// SuggestRule builds a rule from a usage change (the automatic rule
// construction of the paper's §6.3).
func SuggestRule(c UsageChange) *Rule { return rules.Suggest(c) }

// ParseRule compiles a textual rule in the paper's Figure 9 notation, e.g.
// `Cipher : getInstance(X) ∧ X=RC4` (ASCII fallbacks && / || / ! / != are
// accepted).
func ParseRule(id, description, formula string) (*Rule, error) {
	return ruledsl.Parse(id, description, formula)
}

// ParseRuleFile compiles an "id | description | formula" rules file.
func ParseRuleFile(content string) ([]*Rule, error) {
	return ruledsl.ParseFile(content)
}

// Filter applies the four-stage filter pipeline and reports per-stage
// counts (paper §4.2).
func Filter(changes []UsageChange) ([]UsageChange, FilterStats) {
	return change.Filter(changes)
}

// Cluster builds the complete-linkage dendrogram over usage changes
// (paper §4.3). Distances run through a fresh memoized engine; the result
// is identical to the uncached computation.
func Cluster(changes []UsageChange) *Dendrogram {
	return cluster.AgglomerateEngine(changes, cluster.Complete, nil, nil, distcache.New(nil))
}

// RenderDendrogram draws an ASCII dendrogram.
func RenderDendrogram(root *Dendrogram, label func(i int) string) string {
	return cluster.Render(root, label)
}

// GenerateCorpus builds the synthetic GitHub-substitute corpus.
func GenerateCorpus(cfg CorpusConfig) *Corpus { return corpus.Generate(cfg) }

// DefaultCorpusConfig is the paper-scale configuration (461 + 58 projects).
func DefaultCorpusConfig() CorpusConfig { return corpus.Default() }

// MineCorpus collects code changes from a corpus's training projects.
func MineCorpus(c *Corpus, minCommits int) []CodeChange {
	return mining.Collect(c, mining.Options{MinCommits: minCommits})
}

// NewEvaluation mines and analyzes a corpus once for figure regeneration.
func NewEvaluation(c *Corpus, opts Options) *Evaluation {
	return core.NewEvaluation(c, opts)
}

// UnifiedDiff renders a "-/+" patch between two sources with ctx lines of
// context (negative keeps everything).
func UnifiedDiff(old, new string, ctx int) string {
	return textdiff.Unified(old, new, ctx)
}

// DiffSources derives the usage changes of a target class between two
// versions of a Java source file: both versions are parsed and abstractly
// interpreted, their usage DAGs paired, and each pair diffed into (F−, F+).
func DiffSources(oldSrc, newSrc, class string, opts Options) []UsageChange {
	d := core.New(opts)
	a, err := d.AnalyzeChange(mining.CodeChange{Old: oldSrc, New: newSrc})
	if err != nil {
		return nil
	}
	return d.ExtractClass(a, class)
}

// BuildDAGs analyzes a Java source and returns the usage DAGs of the given
// class (one per allocation site).
func BuildDAGs(src, class string, opts Options) []*Graph {
	return core.BuildDAGs(src, class, opts)
}

// CheckSource runs CryptoChecker's 13 rules over a single Java source. An
// exhausted Options.BudgetSteps reports over the partial analysis; a check
// that fails outright (a panic in the analysis) reports nothing. Use
// NewChecker(...).CheckRequest for the error and for witness traces.
func CheckSource(src string, ctx RuleContext, opts Options) []Violation {
	out, _ := core.NewChecker(nil, opts).CheckRequest(context.Background(), map[string]string{"Main.java": src}, ctx, false)
	if out == nil {
		return nil
	}
	return out.Violations
}

// AnalyzeUsages exposes the abstract usages AUses of a source (primarily
// for tooling and tests), analyzed under the same effective options as
// BuildDAGs and CheckSource.
func AnalyzeUsages(src string, opts Options) *analysis.Result {
	return core.AnalyzeSource(src, opts)
}
