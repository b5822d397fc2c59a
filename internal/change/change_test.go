package change

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/cryptoapi"
	"repro/internal/usage"
)

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	return analysis.AnalyzeSource(src, analysis.Options{})
}

const oldSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}
`

const newSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}
`

// TestPaperFigure2d reproduces the removed/added features of Figure 2(d).
func TestPaperFigure2d(t *testing.T) {
	changes := Extract(analyze(t, oldSrc), analyze(t, newSrc), cryptoapi.Cipher, 0, Meta{})
	if len(changes) != 1 {
		t.Fatalf("changes = %d, want 1", len(changes))
	}
	c := changes[0]
	wantRemoved := []string{
		`Cipher getInstance arg1:"AES"`,
	}
	wantAdded := []string{
		`Cipher getInstance arg1:"AES/CBC/PKCS5Padding"`,
		`Cipher init arg3:IvParameterSpec`,
	}
	if got := renderPaths(c.Removed); !sameSet(got, wantRemoved) {
		t.Errorf("removed = %v, want %v", got, wantRemoved)
	}
	if got := renderPaths(c.Added); !sameSet(got, wantAdded) {
		t.Errorf("added = %v, want %v", got, wantAdded)
	}
}

func renderPaths(ps []usage.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = strings.Join(p, " ")
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func TestRefactoringIsSame(t *testing.T) {
	// Pure renames must produce an fsame-filterable (empty) usage change.
	refactored := `
class RenamedCipher {
    Cipher cipherInstance;
    final String transformName = "AES";
    protected void configureKey(Secret secretKey) {
        try {
            cipherInstance = Cipher.getInstance(transformName);
            cipherInstance.init(Cipher.ENCRYPT_MODE, secretKey);
        } catch (Exception e) {}
    }
}
`
	changes := Extract(analyze(t, oldSrc), analyze(t, refactored), cryptoapi.Cipher, 0, Meta{})
	if len(changes) != 1 {
		t.Fatalf("changes = %d", len(changes))
	}
	if !changes[0].IsSame() {
		t.Errorf("refactoring produced semantic change:\n%s", changes[0].String())
	}
}

func TestAddOnlyAndRemoveOnly(t *testing.T) {
	empty := `class A { void m() {} }`
	added := Extract(analyze(t, empty), analyze(t, oldSrc), cryptoapi.Cipher, 0, Meta{})
	if len(added) != 1 || !added[0].IsAddOnly() {
		t.Errorf("new usage not classified add-only: %+v", added)
	}
	removed := Extract(analyze(t, oldSrc), analyze(t, empty), cryptoapi.Cipher, 0, Meta{})
	if len(removed) != 1 || !removed[0].IsRemoveOnly() {
		t.Errorf("deleted usage not classified remove-only: %+v", removed)
	}
}

func TestShortest(t *testing.T) {
	paths := []usage.Path{
		{"a", "b"},
		{"a", "b", "c"},
		{"b", "c"},
		{"a"},
		{"a", "x"},
	}
	got := renderPaths(Shortest(paths))
	want := []string{"b c", "a"}
	if !sameSet(got, want) {
		t.Errorf("Shortest = %v, want %v", got, want)
	}
}

func TestShortestPaperExample(t *testing.T) {
	// §3.5: Shortest({a→b, a→b→c, b→c}) = {a→b, b→c}.
	paths := []usage.Path{{"a", "b"}, {"a", "b", "c"}, {"b", "c"}}
	got := renderPaths(Shortest(paths))
	want := []string{"a b", "b c"}
	if !sameSet(got, want) {
		t.Errorf("Shortest = %v, want %v", got, want)
	}
}

// Property: Shortest is idempotent, output is a subset of input, and no
// output path is a strict prefix of another.
func TestQuickShortestProperties(t *testing.T) {
	gen := func(raw [][]byte) []usage.Path {
		var ps []usage.Path
		for _, r := range raw {
			var p usage.Path
			for _, b := range r {
				p = append(p, string(rune('a'+b%4)))
				if len(p) >= 4 {
					break
				}
			}
			if len(p) > 0 {
				ps = append(ps, p)
			}
		}
		return ps
	}
	f := func(raw [][]byte) bool {
		ps := gen(raw)
		s := Shortest(ps)
		// subset
		in := map[string]bool{}
		for _, p := range ps {
			in[p.Key()] = true
		}
		for _, p := range s {
			if !in[p.Key()] {
				return false
			}
		}
		// no strict prefixes among output
		for i, p := range s {
			for j, q := range s {
				if i != j && len(q) < len(p) && q.IsPrefixOf(p) {
					return false
				}
			}
		}
		// idempotent
		return len(Shortest(s)) == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFilterPipeline(t *testing.T) {
	mk := func(rem, add []string) UsageChange {
		c := UsageChange{Class: "Cipher"}
		for _, r := range rem {
			c.Removed = append(c.Removed, usage.Path{r})
		}
		for _, a := range add {
			c.Added = append(c.Added, usage.Path{a})
		}
		return c
	}
	changes := []UsageChange{
		mk(nil, nil),                     // fsame
		mk(nil, nil),                     // fsame
		mk(nil, []string{"x"}),           // fadd
		mk([]string{"y"}, nil),           // frem
		mk([]string{"a"}, []string{"b"}), // kept
		mk([]string{"a"}, []string{"b"}), // fdup
		mk([]string{"c"}, []string{"d"}), // kept
	}
	out, stats := Filter(changes)
	if stats.Total != 7 || stats.AfterSame != 5 || stats.AfterAdd != 4 ||
		stats.AfterRem != 3 || stats.AfterDup != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if len(out) != 2 {
		t.Errorf("survivors = %d", len(out))
	}
}

func TestFilterKeepsSemanticFix(t *testing.T) {
	// The end-to-end paper example must survive all filters.
	changes := Extract(analyze(t, oldSrc), analyze(t, newSrc), cryptoapi.Cipher, 0, Meta{})
	out, _ := Filter(changes)
	if len(out) != 1 {
		t.Fatalf("the ECB→CBC fix was filtered out (%d survivors)", len(out))
	}
}

func TestKeyCanonical(t *testing.T) {
	a := UsageChange{Class: "Cipher",
		Removed: []usage.Path{{"x"}, {"y"}},
		Added:   []usage.Path{{"z"}}}
	b := UsageChange{Class: "Cipher",
		Removed: []usage.Path{{"y"}, {"x"}}, // different order
		Added:   []usage.Path{{"z"}}}
	if a.Key() != b.Key() {
		t.Error("Key is order-sensitive; duplicates will slip through fdup")
	}
	c := UsageChange{Class: "MessageDigest",
		Removed: []usage.Path{{"x"}, {"y"}},
		Added:   []usage.Path{{"z"}}}
	if a.Key() == c.Key() {
		t.Error("Key ignores the target class")
	}
}

func TestMultiObjectChange(t *testing.T) {
	// Both enc and dec change: two usage changes result (one per object).
	oldTwo := `
class A {
    void m(Key k) throws Exception {
        Cipher enc = Cipher.getInstance("AES");
        enc.init(Cipher.ENCRYPT_MODE, k);
        Cipher dec = Cipher.getInstance("AES");
        dec.init(Cipher.DECRYPT_MODE, k);
    }
}
`
	newTwo := strings.ReplaceAll(oldTwo, `"AES"`, `"AES/GCM/NoPadding"`)
	changes := Extract(analyze(t, oldTwo), analyze(t, newTwo), cryptoapi.Cipher, 0, Meta{})
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	for _, c := range changes {
		if c.IsSame() {
			t.Error("semantic change classified as same")
		}
	}
	// The two changes are textually identical → fdup leaves one.
	out, stats := Filter(changes)
	if len(out) != 1 || stats.AfterDup != 1 {
		t.Errorf("dedup failed: %d survivors", len(out))
	}
}

// Benchmark results land in these so the compiler keeps the calls.
var (
	benchRemoved, benchAdded []usage.Path
	benchChanges             []UsageChange
)

// BenchmarkDiff diffs the Figure 2 DAG pair, and a DAG against an equal
// one built from a second analysis (the same-shape shortcut).
func BenchmarkDiff(b *testing.B) {
	build := func(src string) *usage.Graph {
		res := analysis.AnalyzeSource(src, analysis.Options{})
		return usage.Build(res, res.ObjsOfType(cryptoapi.Cipher)[0], usage.DefaultDepth)
	}
	for _, bc := range []struct {
		name   string
		g1, g2 *usage.Graph
	}{
		{"differ", build(oldSrc), build(newSrc)},
		{"same-shape", build(newSrc), build(newSrc)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRemoved, benchAdded = Diff(bc.g1, bc.g2)
			}
		})
	}
}

// BenchmarkExtract runs the whole extraction of Figure 2: both versions'
// DAGs, pairing and diff.
func BenchmarkExtract(b *testing.B) {
	oldRes := analysis.AnalyzeSource(oldSrc, analysis.Options{})
	newRes := analysis.AnalyzeSource(newSrc, analysis.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchChanges = Extract(oldRes, newRes, cryptoapi.Cipher, usage.DefaultDepth, Meta{})
	}
}
