package rulepacks

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ruledsl"
	"repro/internal/rulelint"
	"repro/internal/rules"
	"repro/internal/witness"
)

// parseShipped parses every embedded pack in name order.
func parseShipped(t *testing.T) []*ruledsl.Pack {
	t.Helper()
	files := Files()
	var packs []*ruledsl.Pack
	for _, name := range Names() {
		packs = append(packs, ruledsl.ParsePack(name, files[name]))
	}
	if len(packs) < 2 {
		t.Fatalf("expected at least 2 shipped packs, got %d", len(packs))
	}
	return packs
}

// TestShippedPacksLintClean is the shipped-quality gate: both packs must
// compile and produce zero linter findings (not even warnings) against the
// built-in rules, and all 11 rules must register.
func TestShippedPacksLintClean(t *testing.T) {
	res := rulelint.LoadParsed(parseShipped(t))
	if n := len(res.Report.Diags); n != 0 {
		t.Fatalf("shipped packs must lint clean, got %d finding(s):\n%s", n, res.Report.Render())
	}
	if res.Added != 11 {
		t.Fatalf("expected 11 pack rules registered, got %d", res.Added)
	}
	if want := len(rules.All()) + 11; len(res.Active) != want {
		t.Fatalf("active set: got %d rules, want %d", len(res.Active), want)
	}
}

// activeChecker builds a checker over built-ins + both shipped packs.
func activeChecker(t *testing.T) *core.CryptoChecker {
	t.Helper()
	res := rulelint.LoadParsed(parseShipped(t))
	return core.NewChecker(res.Active, core.Options{})
}

func loadExample(t *testing.T, name string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("example: %v", err)
	}
	return map[string]string{name: string(b)}
}

// checkExample checks one testdata example with the given checker; any
// error fails the test.
func checkExample(t *testing.T, checker *core.CryptoChecker, name string, why bool) *core.CheckOutcome {
	t.Helper()
	out, err := checker.CheckRequest(context.Background(), loadExample(t, name), rules.Context{}, why)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func violatedIDs(vs []rules.Violation) map[string]bool {
	out := map[string]bool{}
	for _, v := range vs {
		out[v.Rule.ID] = true
	}
	return out
}

// TestPackRuleExamples pins, for each of the 11 shipped rules, a positive
// example (testdata/<ID>.java fires the rule) and a negative one
// (testdata/<ID>_ok.java does not). P105 also fires on a provider-qualified
// call (testdata/P105_provider.java).
func TestPackRuleExamples(t *testing.T) {
	ids := []string{
		"P101", "P102", "P103", "P104", "P105", "P106",
		"P201", "P202", "P203", "P205", "P206",
	}
	checker := activeChecker(t)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			pos := violatedIDs(checkExample(t, checker, id+".java", false).Violations)
			if !pos[id] {
				t.Errorf("%s.java: rule %s did not fire (got %v)", id, id, keys(pos))
			}
			neg := violatedIDs(checkExample(t, checker, id+"_ok.java", false).Violations)
			if neg[id] {
				t.Errorf("%s_ok.java: rule %s fired on the fixed example", id, id)
			}
		})
	}
	if pos := violatedIDs(checkExample(t, checker, "P105_provider.java", false).Violations); !pos["P105"] {
		t.Errorf("P105_provider.java: rule P105 did not fire (got %v)", keys(pos))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPackExamplesPackClean: every fixed example is clean of ALL pack
// rules, not just its own — the negatives double as cross-rule regression
// programs for the whole merged pack set. (Built-in rules are exempt:
// R5's "use BouncyCastle" predicate deliberately fires on any default-
// provider Cipher use, so full-set cleanliness is not achievable for
// cipher examples.)
func TestPackExamplesPackClean(t *testing.T) {
	checker := activeChecker(t)
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_ok.java") {
			continue
		}
		for id := range violatedIDs(checkExample(t, checker, e.Name(), false).Violations) {
			if strings.HasPrefix(id, "P") {
				t.Errorf("%s: fixed example still violates pack rule %s", e.Name(), id)
			}
		}
	}
}

// TestPackWitnessGolden pins the full witness trace for a pack rule: the
// -why provenance machinery must treat compiled pack rules exactly like
// built-ins, down to the rendered byte.
func TestPackWitnessGolden(t *testing.T) {
	checker := activeChecker(t)
	out := checkExample(t, checker, "P104.java", true)
	ids := violatedIDs(out.Violations)
	if !ids["P104"] {
		t.Fatalf("P104.java: P104 did not fire (got %v)", keys(ids))
	}
	var got strings.Builder
	for _, tr := range out.Traces {
		if tr.Rule == "P104" {
			got.WriteString(witness.Render([]witness.Trace{tr}))
		}
	}
	want := packWitnessGolden
	if got.String() != want {
		t.Errorf("P104 witness drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// packWitnessGolden pins the P104 witness trace byte-for-byte: the
// constant password flowing through toCharArray into load, the one call
// the rule's formula matches.
const packWitnessGolden = `P104: Do not load keystores with constant passwords [KeyStore@l7]
    literal: literal "changeit"  at P104.java:8:21
    call: String.toCharArray(...)  at P104.java:8:21
    sink: KeyStore.load(InputStream, const_byte[])  at P104.java:8:9
`
