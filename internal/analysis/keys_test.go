package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/summary"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/keys.golden from the current analyzer")

// keyTrace analyzes sources over a fresh summary table and renders the
// program's source fingerprint, then every summary key in lookup order.
func keyTrace(name string, sources map[string]string, prov bool) string {
	prog := ParseProgram(sources)
	an := newAnalyzer(prog, Options{Provenance: prov, Summaries: summary.NewTable(nil, nil)}.withDefaults())
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s prov=%t\nsource %s\n", name, prov, prog.SourceFP)
	an.keyLog = func(k artifact.Key) { fmt.Fprintf(&sb, "%s\n", k) }
	an.run()
	return sb.String()
}

// TestSummaryKeysGolden pins Program.SourceFP and the bytes of every
// summary key, provenance off and on, for the paper examples, the helper
// chains and the committed helper-chain fixture. Summary keys address
// entries in a persistent -cache-dir, so a change to the analyzer that
// keeps them byte-identical keeps a warm cache written by an older build
// hitting. Regenerate with -update-keys only when a key change is intended.
func TestSummaryKeysGolden(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "HelperChain.java"))
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name    string
		sources map[string]string
	}{
		{"newVersion", map[string]string{"Main.java": newVersionSrc}},
		{"oldVersion", map[string]string{"Main.java": oldVersionSrc}},
		{"twoFiles", map[string]string{"B.java": oldVersionSrc, "A.java": newVersionSrc}},
		{"deepChain", map[string]string{"Main.java": deepChainSrc}},
		{"helperFork", map[string]string{"Main.java": helperForkSrc}},
		{"outerGuard", map[string]string{"Main.java": outerGuardSrc}},
		{"helperChain", map[string]string{"HelperChain.java": string(fixture)}},
	}
	var sb strings.Builder
	for _, p := range programs {
		for _, prov := range []bool{false, true} {
			sb.WriteString(keyTrace(p.name, p.sources, prov))
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "keys.golden")
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("summary keys differ from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("summary keys differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
	if n := strings.Count(got, "\n"); n < 40 {
		t.Errorf("only %d key lines: the programs exercise too few summary lookups", n)
	}
}
