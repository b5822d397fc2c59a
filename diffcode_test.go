package diffcode

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/usage"
)

// TestPublicAPIPaperExample drives the whole public surface on the paper's
// Figure 2 running example.
func TestPublicAPIPaperExample(t *testing.T) {
	changes := DiffSources(benchOld, benchNew, Cipher, Options{})
	if len(changes) != 1 {
		t.Fatalf("changes = %d", len(changes))
	}
	kept, stats := Filter(changes)
	if len(kept) != 1 || stats.AfterDup != 1 {
		t.Fatalf("filtering lost the fix: %+v", stats)
	}
	c := kept[0]
	if c.Class != Cipher {
		t.Errorf("class = %s", c.Class)
	}
	var rendered []string
	for _, p := range c.Removed {
		rendered = append(rendered, "-"+p.String())
	}
	for _, p := range c.Added {
		rendered = append(rendered, "+"+p.String())
	}
	joined := strings.Join(rendered, "\n")
	if !strings.Contains(joined, `-Cipher → getInstance → arg1:"AES"`) {
		t.Errorf("missing removed feature:\n%s", joined)
	}
	if !strings.Contains(joined, "IvParameterSpec") {
		t.Errorf("missing IV feature:\n%s", joined)
	}

	// The suggested rule flags old code and accepts new code.
	rule := SuggestRule(c)
	oldRes := AnalyzeUsages(benchOld, Options{})
	newRes := AnalyzeUsages(benchNew, Options{})
	if ok, _ := rule.Matches(oldRes, RuleContext{}); !ok {
		t.Error("suggested rule misses the vulnerable version")
	}
	if ok, _ := rule.Matches(newRes, RuleContext{}); ok {
		t.Error("suggested rule flags the fixed version")
	}
}

func TestPublicChecker(t *testing.T) {
	vulnerable := `
class V {
    void go(Key k) throws Exception {
        Cipher c = Cipher.getInstance("AES");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`
	vs := CheckSource(vulnerable, RuleContext{}, Options{})
	ids := map[string]bool{}
	for _, v := range vs {
		ids[v.Rule.ID] = true
	}
	if !ids["R7"] {
		t.Errorf("R7 (ECB) not reported: %v", ids)
	}
	if !ids["R5"] {
		t.Errorf("R5 (provider) not reported: %v", ids)
	}
}

func TestPublicRuleRegistry(t *testing.T) {
	if len(Rules()) != 13 {
		t.Errorf("Rules() = %d", len(Rules()))
	}
	if len(CryptoLintRules()) != 5 {
		t.Errorf("CryptoLintRules() = %d", len(CryptoLintRules()))
	}
	if RuleByID("R7") == nil || RuleByID("CL1") == nil {
		t.Error("RuleByID lookup failed")
	}
	if got := TargetClasses(); len(got) != 6 || got[0] != Cipher {
		t.Errorf("TargetClasses = %v", got)
	}
}

func TestPublicCorpusAndMining(t *testing.T) {
	c := GenerateCorpus(CorpusConfig{Seed: 2, Scale: 0.05, Projects: 10, ExtraProjects: 2})
	if len(c.Projects) != 12 {
		t.Fatalf("projects = %d", len(c.Projects))
	}
	ccs := MineCorpus(c, 0)
	if len(ccs) == 0 {
		t.Fatal("no code changes mined")
	}
	// Unified diff of a change renders the -/+ patch.
	patch := UnifiedDiff(ccs[0].Old, ccs[0].New, 1)
	if !strings.Contains(patch, "- ") && !strings.Contains(patch, "+ ") {
		t.Errorf("diff has no changes:\n%s", patch)
	}
}

func TestPublicClusterRendering(t *testing.T) {
	a := DiffSources(benchOld, benchNew, Cipher, Options{})
	b := DiffSources(
		strings.ReplaceAll(benchOld, `"AES"`, `"DES"`),
		strings.ReplaceAll(benchNew, "AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"),
		Cipher, Options{})
	all := append(a, b...)
	kept, _ := Filter(all)
	if len(kept) < 2 {
		t.Fatalf("kept = %d", len(kept))
	}
	root := Cluster(kept)
	out := RenderDendrogram(root, func(i int) string { return kept[i].Key() })
	if !strings.Contains(out, "h=") {
		t.Errorf("dendrogram:\n%s", out)
	}
}

func TestDefaultCorpusConfig(t *testing.T) {
	cfg := DefaultCorpusConfig()
	if cfg.Projects != 461 || cfg.ExtraProjects != 58 || cfg.Scale != 1.0 {
		t.Errorf("default config = %+v", cfg)
	}
}

// dagLabels renders the node labels of a DAG set in a canonical order.
func dagLabels(gs []*Graph) string {
	var out []string
	for i, g := range gs {
		for k := range g.NodeSet() {
			out = append(out, fmt.Sprintf("%d %s", i, g.Label(k)))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestAnalyzeUsagesHonorsOptions pins the facade's option routing:
// AnalyzeUsages analyzes under the same effective options as BuildDAGs, so
// interpreter telemetry lands in Options.Metrics and the Cipher usages
// behind both are identical, down to the "DES" constant threaded through a
// six-deep helper chain.
func TestAnalyzeUsagesHonorsOptions(t *testing.T) {
	const src = `class Deep {
    void entry() { h1("DES"); }
    void h1(String a) { h2(a); }
    void h2(String a) { h3(a); }
    void h3(String a) { h4(a); }
    void h4(String a) { h5(a); }
    void h5(String a) { h6(a); }
    void h6(String a) { Cipher c = Cipher.getInstance(a); }
}
`
	reg := obs.NewRegistry()
	opts := Options{Metrics: reg}
	res := AnalyzeUsages(src, opts)
	if n := reg.Counter("analysis.runs").Value(); n != 1 {
		t.Errorf("analysis.runs = %d, want 1 (telemetry must land in Options.Metrics)", n)
	}
	var events []string
	for _, o := range res.ObjsOfType(Cipher) {
		for _, e := range res.Uses[o] {
			ev := e.Sig.String()
			for _, a := range e.Args {
				ev += " " + a.Label()
			}
			events = append(events, ev)
		}
	}
	if len(events) != 1 || !strings.Contains(events[0], `"DES"`) {
		t.Errorf("Cipher events = %q, want the getInstance call with the DES constant", events)
	}
	got := dagLabels(usage.BuildAll(res, Cipher, usage.DefaultDepth))
	if want := dagLabels(BuildDAGs(src, Cipher, Options{})); got != want {
		t.Errorf("AnalyzeUsages DAGs differ from BuildDAGs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
