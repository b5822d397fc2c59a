package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/resilience"
)

// forkBombSource builds a legal Java method whose abstract execution visits
// a large number of statements/expressions: n sequential if-statements, each
// forking the state set (capped at MaxStates) and evaluating several
// expressions per surviving state.
func forkBombSource(n int) string {
	var sb strings.Builder
	sb.WriteString("class Bomb {\n  void go(int x) {\n    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (x > %d) { acc = acc + %d * 2 + x; } else { acc = acc - %d; }\n", i, i, i)
	}
	sb.WriteString("  }\n}\n")
	return sb.String()
}

func TestBudgetExhaustedOnForkHeavySnippet(t *testing.T) {
	src := forkBombSource(400)
	b := resilience.NewBudget(5000, 0)
	res, err := AnalyzeBudgetedCtx(context.Background(), ParseProgram(map[string]string{"Main.java": src}), Options{Budget: b})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil {
		t.Fatal("partial result is nil, want non-nil")
	}
	if !b.Exhausted() {
		t.Error("budget not marked exhausted")
	}
}

func TestBudgetLargeEnoughIsNoOp(t *testing.T) {
	src := forkBombSource(40)
	unbudgeted := AnalyzeSource(src, Options{})
	res, err := AnalyzeBudgetedCtx(context.Background(), ParseProgram(map[string]string{"Main.java": src}), Options{Budget: resilience.NewBudget(1<<30, 0)})
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if len(res.Objs) != len(unbudgeted.Objs) || len(res.Uses) != len(unbudgeted.Uses) {
		t.Errorf("budgeted result differs from unbudgeted: %d/%d objs, %d/%d uses",
			len(res.Objs), len(unbudgeted.Objs), len(res.Uses), len(unbudgeted.Uses))
	}
}

func TestNilBudgetMatchesAnalyze(t *testing.T) {
	src := `class A { void m() { javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES"); c.doFinal(); } }`
	res, err := AnalyzeBudgetedCtx(context.Background(), ParseProgram(map[string]string{"Main.java": src}), Options{})
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	plain := AnalyzeSource(src, Options{})
	if len(res.Objs) != len(plain.Objs) {
		t.Errorf("objs differ: %d vs %d", len(res.Objs), len(plain.Objs))
	}
}
