package analysis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cputime"
	"repro/internal/obs"
	"repro/internal/summary"
)

// bigClassSrc is one class of n fields, n helper methods and n allocation
// sites: helper hI allocates a Cipher from field fI, run calls every helper,
// h7 writes f8 before h8 reads it, h0 runs twice, f3 is declared twice, and
// h5 has an uncalled two-argument overload. n must be at least 9.
func bigClassSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("import javax.crypto.Cipher;\n\nclass Big {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    String f%d = \"A%d\";\n", i, i)
	}
	sb.WriteString("    String f3 = \"B3\";\n    void run() {\n        h0(1);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "        h%d(1);\n", i)
	}
	sb.WriteString("    }\n    void h7(int x) { f8 = \"W\"; Cipher c = Cipher.getInstance(f7); }\n")
	for i := 0; i < n; i++ {
		if i != 7 {
			fmt.Fprintf(&sb, "    void h%d(int x) { Cipher c = Cipher.getInstance(f%d); }\n", i, i)
		}
	}
	sb.WriteString("    void h5(int x, int y) { }\n}\n")
	return sb.String()
}

// TestBigClassIndexed checks the name and site indexes on a class past
// twenty fields, methods and allocation sites:
// every helper's object carries the value its field holds when it runs (the
// last declaration of a redeclared field, a value another helper wrote),
// a site run twice keeps one object, the uncalled overload stays an entry,
// and live, memoized and warm-replayed runs agree.
func TestBigClassIndexed(t *testing.T) {
	src := bigClassSrc(20)
	memo, _ := analyzeWith(t, src)
	var want strings.Builder
	for i := 0; i < 20; i++ {
		arg := fmt.Sprintf("A%d", i)
		switch i {
		case 3:
			arg = "B3"
		case 8:
			arg = "W"
		}
		fmt.Fprintf(&want, "Cipher.getInstance(String)|%q\n", arg)
	}
	var got strings.Builder
	for _, line := range strings.Split(memo, "\n") {
		if strings.HasPrefix(line, "  ") {
			got.WriteString(strings.TrimSpace(line) + "\n")
		}
	}
	if got.String() != want.String() {
		t.Errorf("events:\n%s\nwant:\n%s", got.String(), want.String())
	}

	reg := obs.NewRegistry()
	tbl := summary.NewTable(nil, reg)
	prog := ParseProgram(map[string]string{"Big.java": src})
	cold := renderResult(Analyze(prog, Options{Summaries: tbl}))
	warm := renderResult(Analyze(prog, Options{Summaries: tbl}))
	if cold != memo || warm != memo {
		t.Errorf("cold or warm run diverges:\n--- memo ---\n%s--- cold ---\n%s--- warm ---\n%s", memo, cold, warm)
	}
	if hits := reg.Counter("summary.hits").Value(); hits < 20 {
		t.Errorf("summary.hits = %d, want the warm run to replay every helper", hits)
	}

	an := newAnalyzer(prog, Options{}.withDefaults())
	var entries []string
	for _, m := range an.entryMethods(an.classes["Big"]) {
		entries = append(entries, fmt.Sprintf("%s/%d", m.Name, len(m.Params)))
	}
	if got := strings.Join(entries, " "); got != "run/0 h5/2" {
		t.Errorf("entries = %s, want run/0 h5/2", got)
	}
}

// TestAnalyzeScalesWithClassSize pins that resolving method, field and
// allocation-site names costs the same however large a class is: a class
// sixteen times the size of another, in fields, methods and sites, must
// cost under 28 times as much CPU per analysis. Indexed lookups read 18 to
// 22, and 24 under the race detector; a linear scan per lookup reads about
// 37 for allocation sites and 125 for fields. Each side is timed over
// about the same CPU time, with the collector off (cputime.Collected).
func TestAnalyzeScalesWithClassSize(t *testing.T) {
	const n, scale, rounds, reps = 250, 16, 5, 2
	run := func(prog *Program, reps int) time.Duration {
		Analyze(prog, Options{})
		return cputime.Collected(func() {
			for range reps {
				Analyze(prog, Options{})
			}
		}) / time.Duration(reps)
	}
	small := ParseProgram(map[string]string{"Big.java": bigClassSrc(n)})
	big := ParseProgram(map[string]string{"Big.java": bigClassSrc(scale * n)})
	t1, t2 := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		t1 = min(t1, run(small, scale*reps))
		t2 = min(t2, run(big, reps))
	}
	t.Logf("%d members: %v, %d members: %v", n, t1, scale*n, t2)
	if ratio := float64(t2) / float64(t1); ratio >= 28 {
		t.Errorf("Analyze: %d members %v, %d members %v (ratio %.1f, want < 28)", n, t1, scale*n, t2, ratio)
	}
}
