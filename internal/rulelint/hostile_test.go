package rulelint

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cputime"
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

// armsRule is one rule line whose getInstance(X) is constrained by an
// n-arm disjunction; longRule has n X≠… conjuncts after getInstance(X).
// Structural implication between the two tries every arm against every
// conjunct.
func armsRule(n int) string {
	return "W2 | arms | Cipher : getInstance(X) ∧ (" + strings.Repeat("X=AES ∨ ", n-1) + "X=DES)"
}

func longRule(n int) string {
	return "L1 | long | Cipher : getInstance(X)" + strings.Repeat(" ∧ X≠AES", n)
}

// TestPackLoadScalesLinearly times ParsePack + Lint on one wide rule with
// n arms, then on a pack of two wide rules, one with n arms and one with
// n/2 conjuncts, and on each again at 2n: doubling the rules must not
// quadruple the time. The subsumption pass compares the two rules within
// a fixed step budget.
func TestPackLoadScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	for _, pack := range []struct {
		name string
		src  func(n int) string
	}{
		{"one wide rule", func(n int) string { return wideRule(n) + "\n" }},
		{"two wide rules", func(n int) string { return armsRule(n) + "\n" + longRule(n/2) + "\n" }},
	} {
		t.Run(pack.name, func(t *testing.T) { scalesLinearly(t, pack.src) })
	}
}

// scalesLinearly times the pack at n and at 2n, interleaving the two
// sizes over several rounds and keeping each size's fastest run. The times
// are the process's CPU time where the platform reports it, so test
// packages running alongside do not inflate either side, and each call
// starts after a collection, so no call pays for the garbage of the one
// before.
func scalesLinearly(t *testing.T, gen func(n int) string) {
	const n, rounds = 5000, 7
	load := func(src string) time.Duration {
		runtime.GC()
		start := cputime.Process()
		pack := ruledsl.ParsePack("wide.rules", src)
		Lint([]*ruledsl.Pack{pack}, Options{Builtins: rules.All(), Reserved: rules.CryptoLint()})
		return cputime.Process() - start
	}
	src1, src2 := gen(n), gen(2*n)
	t1, t2 := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		t1 = min(t1, load(src1))
		t2 = min(t2, load(src2))
	}
	t.Logf("%d arms: %v, %d arms: %v", n, t1, 2*n, t2)
	if ratio := float64(t2) / float64(t1); ratio >= 3 {
		t.Errorf("ParsePack+Lint: %d arms %v, %d arms %v (ratio %.1f, want < 3)", n, t1, 2*n, t2, ratio)
	}
}

// TestSubsumptionBudget checks that subsumption is still found between
// rules whose comparison fits the step budget, and that a pair past the
// budget gets no finding. In both packs the first rule implies the
// second, but proving it takes about n·n implies steps: each arm of the
// second rule's disjunction is tried against every conjunct of the first.
// The rules are on Mac, which no built-in covers, so the pair's findings
// are the only ones.
func TestSubsumptionBudget(t *testing.T) {
	pack := func(n int) string {
		var a, b strings.Builder
		a.WriteString("A1 | a | Mac : getInstance(X) ∧ X=ZZZ")
		b.WriteString("B1 | b | Mac : getInstance(X) ∧ (")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&a, " ∧ X≠F%d", i)
			fmt.Fprintf(&b, "X=G%d ∨ ", i)
		}
		b.WriteString("X=ZZZ)")
		return a.String() + "\n" + b.String() + "\n"
	}
	if got := codes(lintSrc(t, "small.rules", pack(100)), "RL3"); got != CodeSubsumed {
		t.Errorf("100-wide pair: subsumption codes = %q, want %s", got, CodeSubsumed)
	}
	start := time.Now()
	if got := codes(lintSrc(t, "large.rules", pack(1000)), "RL3"); got != "" {
		t.Errorf("1000-wide pair: subsumption codes = %q, want none (budget spent)", got)
	}
	t.Logf("1000-wide pair linted in %v", time.Since(start))
}
