package rulelint

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ruledsl"
	"repro/internal/rules"
)

// dnfBombLine is a 20-conjunct rule line whose DNF has 2^20 disjuncts.
func dnfBombLine() string {
	return "H1 | dnf bomb | Cipher : getInstance(X)" + strings.Repeat(" ∧ (X=AES ∨ X=DES)", 20)
}

// wideRule is one rule line with n getInstance(X) arms.
func wideRule(n int) string {
	return "W1 | wide | Cipher : " + strings.Repeat("getInstance(X) ∨ ", n-1) + "getInstance(X)"
}

// TestDNFBound checks that a clause whose DNF would explode is not
// expanded: it lints within a few MB and reports RL205 instead of a
// satisfiability verdict.
func TestDNFBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := lintSrc(t, "dnf.rules", dnfBombLine()+"\n")
	runtime.ReadMemStats(&after)
	mb := (after.TotalAlloc - before.TotalAlloc) >> 20
	t.Logf("allocated %d MB", mb)
	if mb > 64 {
		t.Errorf("linting the 20-pair line allocated %d MB, want ≤ 64", mb)
	}
	if got := codes(rep, "RL2"); got != CodeDNFBound {
		t.Errorf("satisfiability codes = %q, want %s\n%s", got, CodeDNFBound, rep.Render())
	}
}

// codes lists the report's diagnostic codes with the given prefix.
func codes(rep *Report, prefix string) string {
	var out []string
	for _, d := range rep.Diags {
		if strings.HasPrefix(d.Code, prefix) {
			out = append(out, d.Code)
		}
	}
	return strings.Join(out, " ")
}

// TestDNFBoundKeepsLinearFormulas checks that the bound leaves formulas
// whose expansion is linear in their size fully checked: a 10k-arm
// disjunction still reports its dead arm, and a long conjunction its
// contradiction.
func TestDNFBoundKeepsLinearFormulas(t *testing.T) {
	wide := "W1 | wide | Cipher : getInstance(X) ∧ (" +
		strings.Repeat("X=AES ∨ ", 9999) + "(X=DES ∧ X=RC2))\n"
	long := "L1 | long | Cipher : getInstance(X)" + strings.Repeat(" ∧ X≠AES", 5000) + " ∧ X=DES ∧ X=RC2\n"
	if got := codes(lintSrc(t, "wide.rules", wide), "RL2"); got != CodeDeadBranch {
		t.Errorf("10k-arm disjunction: satisfiability codes = %q, want %s", got, CodeDeadBranch)
	}
	if got := codes(lintSrc(t, "long.rules", long), "RL2"); got != CodeContradict {
		t.Errorf("long conjunction: satisfiability codes = %q, want %s", got, CodeContradict)
	}
}

// TestPackLoadScalesLinearly times ParsePack + Lint on one wide rule with
// n and 2n arms: doubling the rule must not quadruple the time.
func TestPackLoadScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	load := func(n int) time.Duration {
		src := wideRule(n) + "\n"
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			pack := ruledsl.ParsePack("wide.rules", src)
			Lint([]*ruledsl.Pack{pack}, Options{Builtins: rules.All(), Reserved: rules.CryptoLint()})
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	const n = 5000
	t1, t2 := load(n), load(2*n)
	t.Logf("%d arms: %v, %d arms: %v", n, t1, 2*n, t2)
	if ratio := float64(t2) / float64(t1); ratio >= 3 {
		t.Errorf("ParsePack+Lint: %d arms %v, %d arms %v (ratio %.1f, want < 3)", n, t1, 2*n, t2, ratio)
	}
}
