package rules

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the built-in pack's fuzz seed files")

// TestBuiltinFuzzSeeds keeps the built-in pack in the rule fuzzers' seed
// corpora: FuzzRuleParse (ruledsl) and FuzzRuleLint (rulelint) start from
// the exact text the built-ins compile from.
func TestBuiltinFuzzSeeds(t *testing.T) {
	want := "go test fuzz v1\nstring(" + strconv.Quote(BuiltinText) + ")\n"
	for _, path := range []string{
		"../ruledsl/testdata/fuzz/FuzzRuleParse/builtin_rules",
		"../rulelint/testdata/fuzz/FuzzRuleLint/builtin_rules",
	} {
		if *updateSeeds {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s does not hold the built-in pack; rerun with -update-seeds", path)
		}
	}
}
