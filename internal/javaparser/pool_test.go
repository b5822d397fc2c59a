package javaparser

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/javaast"
)

// genPoolProgram generates program id: an entry method passes a constant
// down a chain of helpers, each calling the next one to three times. The
// helpers also use the constructs the parser speculates on — generic locals
// whose closing ">>" is split, casts, parenthesized shifts, enhanced for
// loops, lambdas — so the token buffer is mutated and restored while it is
// shared through the pool.
func genPoolProgram(r *rand.Rand, id int) string {
	depth := 1 + r.Intn(6)
	var sb strings.Builder
	fmt.Fprintf(&sb, "class P%d {\n    void run() { h1(\"AES/ECB/PKCS5Padding\"); }\n", id)
	for k := 1; k <= depth; k++ {
		fmt.Fprintf(&sb, "    String h%d(String a) {\n", k)
		switch r.Intn(5) {
		case 0:
			sb.WriteString("        Map<String, List<Integer>> m = new HashMap<>();\n")
		case 1:
			sb.WriteString("        Object o = (Object) a; int n = (int) a.length();\n")
		case 2:
			fmt.Fprintf(&sb, "        int z = (n < k%d >> 2);\n", r.Intn(100))
		case 3:
			sb.WriteString("        for (String s : a.split(\",\")) { a = s.trim(); }\n")
		default:
			sb.WriteString("        Function<String, String> f = (x) -> x + a;\n")
		}
		if k == depth {
			sb.WriteString("        Cipher c = Cipher.getInstance(a);\n")
		} else {
			for j := 0; j < 1+r.Intn(3); j++ {
				fmt.Fprintf(&sb, "        a = h%d(a);\n", k+1)
			}
		}
		sb.WriteString("        return a;\n    }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// parseFingerprint renders everything Parse returns: the unit's summary,
// its gob encoding (every node, text and position) and the errors.
func parseFingerprint(t *testing.T, res Result) string {
	t.Helper()
	b, err := javaast.GobEncode(res.Unit)
	if err != nil {
		t.Fatalf("gob: %v", err)
	}
	return fmt.Sprintf("%s\n%x\n%v", javaast.Summary(res.Unit), b, res.Errors)
}

// TestDeterminismParsePooled parses generated programs and the fuzz seeds
// on 4 goroutines sharing the token buffer pool, and checks every result
// against a serial parse. The first AST is re-encoded after all the other
// parses: it must not have changed, so no result aliases a pooled buffer.
func TestDeterminismParsePooled(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var srcs []string
	for id := 0; id < 200; id++ {
		srcs = append(srcs, genPoolProgram(r, id))
	}
	srcs = append(srcs, fuzzSeeds...)

	want := make([]string, len(srcs))
	for i, src := range srcs {
		res := Parse(src)
		if i < 200 && len(res.Errors) > 0 {
			t.Fatalf("generated program %d: %v\n%s", i, res.Errors, src)
		}
		want[i] = parseFingerprint(t, res)
	}

	results := make([]Result, len(srcs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = Parse(srcs[i])
			}
		}()
	}
	results[0] = Parse(srcs[0])
	first := parseFingerprint(t, results[0])
	for i := 1; i < len(srcs); i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, res := range results {
		if got := parseFingerprint(t, res); got != want[i] {
			t.Errorf("source %d: pooled parse differs from the serial parse", i)
		}
	}
	if again := parseFingerprint(t, results[0]); again != first {
		t.Error("the first AST changed while later parses reused the token buffers")
	}
	if first != want[0] {
		t.Error("the first pooled parse differs from the serial parse")
	}
}
