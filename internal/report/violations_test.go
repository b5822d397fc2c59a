package report

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rules"
)

// TestSortViolationsByLocation pins the -why report order: violations come
// back sorted by (file, line, rule ID), and the input slice keeps the
// checker's rule-set order.
func TestSortViolationsByLocation(t *testing.T) {
	sources := map[string]string{
		// File names chosen so lexical file order disagrees with rule order.
		"a/Second.java": `
			import javax.crypto.spec.IvParameterSpec;
			class Second {
				void run() throws Exception {
					IvParameterSpec iv = new IvParameterSpec(new byte[]{1, 2, 3, 4});
				}
			}`,
		"b/First.java": `
			import javax.crypto.Cipher;
			class First {
				void run() throws Exception {
					Cipher c = Cipher.getInstance("DES");
				}
			}`,
	}
	res := analysis.Analyze(analysis.ParseProgram(sources), analysis.Options{Provenance: true})
	// R8 (DES, file b) precedes R9 (static IV, file a) in rule-set order;
	// location order must flip them.
	vs := rules.CheckPoolCtx(context.Background(), res, rules.Context{}, []*rules.Rule{rules.R8, rules.R9}, nil)
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d", len(vs))
	}
	if vs[0].Rule.ID != "R8" || vs[1].Rule.ID != "R9" {
		t.Fatalf("rule-set order = %s, %s; want R8, R9", vs[0].Rule.ID, vs[1].Rule.ID)
	}
	sorted := SortViolations(vs, res)
	if sorted[0].Rule.ID != "R9" || sorted[1].Rule.ID != "R8" {
		t.Errorf("location order = %s, %s; want R9 (a/Second.java), R8 (b/First.java)",
			sorted[0].Rule.ID, sorted[1].Rule.ID)
	}
	// The input must be untouched — the plain CLI path depends on it.
	if vs[0].Rule.ID != "R8" || vs[1].Rule.ID != "R9" {
		t.Errorf("SortViolations mutated its input: %s, %s", vs[0].Rule.ID, vs[1].Rule.ID)
	}
}

// TestSortViolationsSameFileByLine checks the line tiebreak within a file
// and the rule-ID tiebreak on one line.
func TestSortViolationsSameFileByLine(t *testing.T) {
	sources := map[string]string{"T.java": `
		import javax.crypto.Cipher;
		import javax.crypto.spec.SecretKeySpec;
		class T {
			void run() throws Exception {
				SecretKeySpec ks = new SecretKeySpec(new byte[]{1, 2}, "AES");
				Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding");
			}
		}`}
	res := analysis.Analyze(analysis.ParseProgram(sources), analysis.Options{Provenance: true})
	vs := rules.CheckPoolCtx(context.Background(), res, rules.Context{}, []*rules.Rule{rules.R7, rules.R10}, nil)
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d", len(vs))
	}
	sorted := SortViolations(vs, res)
	// SecretKeySpec allocates on line 6, the Cipher on line 7.
	if sorted[0].Rule.ID != "R10" || sorted[1].Rule.ID != "R7" {
		t.Errorf("line order = %s, %s; want R10 then R7", sorted[0].Rule.ID, sorted[1].Rule.ID)
	}
}
