package ruledsl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func analyze(t *testing.T, body string) *analysis.Result {
	t.Helper()
	src := "class T {\n  void run(Key key, char[] pw) throws Exception {\n" +
		body + "\n  }\n}\n"
	return analysis.AnalyzeSource(src, analysis.Options{})
}

func mustMatch(t *testing.T, ruleSrc, body string, ctx Context, want bool) {
	t.Helper()
	syn, err := ParseSyntax(ruleSrc)
	if err != nil {
		t.Fatalf("parse %q: %v", ruleSrc, err)
	}
	if got := matches(t, syn, analyze(t, body), ctx); got != want {
		t.Errorf("rule %q on %q: match = %t, want %t", ruleSrc, body, got, want)
	}
}

// matches evaluates a rule the way the checker does: each positive clause
// needs an object of its class whose formula holds, no object may satisfy
// a negated clause, and a rule that tests MIN_SDK_VERSION needs an Android
// project. Along the way it checks that Holds and Evidence agree.
func matches(t *testing.T, syn *Syntax, res *analysis.Result, ctx Context) bool {
	t.Helper()
	if syn.AndroidOnly() && !ctx.Android {
		return false
	}
	for _, c := range syn.Clauses {
		p := Compile(c.Formula)
		hit := false
		for _, o := range res.ObjsOfType(c.Class) {
			holds := p.Holds(res.Uses[o], ctx)
			if !agrees(p, res.Uses[o], ctx) {
				t.Errorf("%s: Holds = %t but %d evidence matches", syn.Source, holds, len(p.Evidence(res.Uses[o], ctx)))
			}
			hit = hit || holds
		}
		if hit == c.Negated {
			return false
		}
	}
	return true
}

// agrees reports whether Evidence is non-empty exactly when Holds is true.
// A formula with a path that matches no call (¬getInstance, a context
// atom alone) may also hold with no evidence.
func agrees(p *Program, events []analysis.Event, ctx Context) bool {
	holds, n := p.Holds(events, ctx), len(p.Evidence(events, ctx))
	return holds == (n > 0) || holds && callFree(p.root)
}

// callFree reports whether the formula from n on can hold without
// matching a call: a test on such a path reads an unbound variable.
func callFree(n *node) bool {
	switch {
	case n == nil:
		return true
	case n.kind == nOr:
		for _, k := range n.kids {
			if callFree(k) {
				return true
			}
		}
	case n.kind == nNot || n.kind == nCtx:
		return callFree(n.succ)
	}
	return false
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`Cipher : getInstance(X) ∧ X=AES/CBC`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{tIdent, tColon, tIdent, tLParen, tVar, tRParen, tAnd,
		tVar, tEq, tIdent, tEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want kind %d", i, toks[i], k)
		}
	}
	if toks[9].text != "AES/CBC" {
		t.Errorf("literal = %q", toks[9].text)
	}
}

func TestLexInitAndOperators(t *testing.T) {
	toks, err := lex(`PBEKeySpec : <init>(_,_,X,_) ∧ X<1000`)
	if err != nil {
		t.Fatal(err)
	}
	var sawInit, sawLt bool
	for _, tk := range toks {
		if tk.kind == tIdent && tk.text == "<init>" {
			sawInit = true
		}
		if tk.kind == tLt {
			sawLt = true
		}
	}
	if !sawInit || !sawLt {
		t.Errorf("missing <init> or '<': %v", toks)
	}
}

func TestLexASCIIFallbacks(t *testing.T) {
	uni, err := lex(`Cipher : getInstance(X) ∧ X≠BC ∨ ¬init`)
	if err != nil {
		t.Fatal(err)
	}
	ascii, err := lex(`Cipher : getInstance(X) && X!=BC || !init`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != len(ascii) {
		t.Fatalf("unicode/ascii token counts differ: %v vs %v", uni, ascii)
	}
	for i := range uni {
		if uni[i].kind != ascii[i].kind {
			t.Errorf("token %d: %v vs %v", i, uni[i], ascii[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Cipher",
		"Cipher :",
		"Cipher : X=",
		"Cipher : getInstance(X",
		"Cipher : getInstance(X) ∧",
		": getInstance(X)",
		"Cipher : (getInstance(X)",
		"Cipher : X",
		"Cipher : MIN_SDK_VERSION≥abc",
	}
	for _, src := range bad {
		if _, err := ParseSyntax(src); err == nil {
			t.Errorf("ParseSyntax(%q) succeeded, want error", src)
		}
	}
}

func TestSimpleEquality(t *testing.T) {
	rule := `MessageDigest : getInstance(X) ∧ X=SHA-1`
	mustMatch(t, rule, `MessageDigest md = MessageDigest.getInstance("SHA-1");`, Context{}, true)
	mustMatch(t, rule, `MessageDigest md = MessageDigest.getInstance("SHA1");`, Context{}, true) // normalized
	mustMatch(t, rule, `MessageDigest md = MessageDigest.getInstance("SHA-256");`, Context{}, false)
}

func TestDisjunction(t *testing.T) {
	rule := `Cipher : getInstance(X) ∧ (X=AES ∨ X=AES/ECB/PKCS5Padding)`
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES");`, Context{}, true)
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding");`, Context{}, true)
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`, Context{}, false)
}

func TestNumericComparison(t *testing.T) {
	rule := `PBEKeySpec : <init>(_,_,X,_) ∧ X<1000`
	mustMatch(t, rule, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 100, 256);`, Context{}, true)
	mustMatch(t, rule, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 4096, 256);`, Context{}, false)
	// Arity must match the pattern: the 3-arg constructor does not.
	mustMatch(t, rule, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 100);`, Context{}, false)
}

func TestTopLiteral(t *testing.T) {
	rule := `IvParameterSpec : <init>(X) ∧ X≠⊤byte[]`
	mustMatch(t, rule, `IvParameterSpec iv = new IvParameterSpec(new byte[]{1,2,3,4});`, Context{}, true)
	mustMatch(t, rule, `IvParameterSpec iv = new IvParameterSpec(randomIV());`, Context{}, false)
	eq := `IvParameterSpec : <init>(X) ∧ X=⊤byte[]`
	mustMatch(t, eq, `IvParameterSpec iv = new IvParameterSpec(randomIV());`, Context{}, true)
}

func TestNegatedCall(t *testing.T) {
	rule := `SecureRandom : ¬getInstanceStrong`
	// Objects NOT created via getInstanceStrong match the negation.
	mustMatch(t, rule, `SecureRandom r = new SecureRandom();`, Context{}, true)
	// The paper's R4 actually matches the *presence*; the bare formula as
	// written in Figure 9 describes the desired state. Presence matching:
	pres := `SecureRandom : getInstanceStrong`
	mustMatch(t, pres, `SecureRandom r = SecureRandom.getInstanceStrong();`, Context{}, true)
	mustMatch(t, pres, `SecureRandom r = new SecureRandom();`, Context{}, false)
}

func TestStartsWith(t *testing.T) {
	rule := `Cipher : getInstance(X) ∧ startsWith(X,AES/CBC)`
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`, Context{}, true)
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES/GCM/NoPadding");`, Context{}, false)
}

func TestCompositeRule(t *testing.T) {
	rule := `(Cipher : getInstance(X) ∧ startsWith(X,AES/CBC)) ∧ ` +
		`(Cipher : getInstance(Y) ∧ Y=RSA) ∧ ` +
		`¬(Mac : getInstance(Z) ∧ startsWith(Z,Hmac))`
	vulnerable := `
        Cipher data = Cipher.getInstance("AES/CBC/PKCS5Padding");
        Cipher keyex = Cipher.getInstance("RSA");`
	fixedBody := vulnerable + `
        Mac m = Mac.getInstance("HmacSHA256");`
	mustMatch(t, rule, vulnerable, Context{}, true)
	mustMatch(t, rule, fixedBody, Context{}, false)
	mustMatch(t, rule, `Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`, Context{}, false)
}

func TestContextRule(t *testing.T) {
	rule := `SecureRandom : <init>(_) ∨ <init>() ∧ ¬LPRNG ∧ MIN_SDK_VERSION≥16`
	// Simpler form used for the test: bare constructor + context.
	rule = `SecureRandom : <init> ∧ ¬LPRNG ∧ MIN_SDK_VERSION≥16`
	body := `SecureRandom r = new SecureRandom();`
	mustMatch(t, rule, body, Context{Android: true, MinSDKVersion: 17}, true)
	mustMatch(t, rule, body, Context{Android: true, MinSDKVersion: 17, HasLPRNG: true}, false)
	mustMatch(t, rule, body, Context{Android: true, MinSDKVersion: 15}, false)
	mustMatch(t, rule, body, Context{MinSDKVersion: 17}, false) // not Android
}

func TestVariableSharing(t *testing.T) {
	// The same variable in two positions must bind consistently.
	rule := `Cipher : getInstance(X) ∧ unwrap(_,X,_)`
	mustMatch(t, rule, `
        Cipher c = Cipher.getInstance("AES");
        c.unwrap(blob(), "AES", 3);`, Context{}, true)
	mustMatch(t, rule, `
        Cipher c = Cipher.getInstance("AES");
        c.unwrap(blob(), "DES", 3);`, Context{}, false)
}

func TestParseFile(t *testing.T) {
	content := `
# custom rules
NoMD2 | Avoid MD2 digests | MessageDigest : getInstance(X) ∧ X=MD2
NoRC4 | Avoid RC4 stream cipher | Cipher : getInstance(X) ∧ X=RC4
`
	rs, err := ParseFile(content)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].ID != "NoMD2" || rs[1].Description != "Avoid RC4 stream cipher" {
		t.Fatalf("rules = %+v", rs)
	}
	if !matches(t, rs[0].Syntax, analyze(t, `MessageDigest md = MessageDigest.getInstance("MD2");`), Context{}) {
		t.Error("file-loaded rule does not match")
	}
}

func TestParseFileErrors(t *testing.T) {
	bad := []string{
		"just one field",
		"id | desc only",
		"A | d | Cipher : getInstance(X | broken",
		"A | d | Cipher : getInstance(X)\nA | dup | Cipher : init",
		" | empty id | Cipher : init",
	}
	for _, content := range bad {
		if _, err := ParseFile(content); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", content)
		}
	}
}

// TestParseNeverPanics feeds the parser and compiler the kind of garbage a user-supplied
// rule pack can contain. Whatever happens internally, it must come back as
// an error — the checker CLI routes untrusted rule sources through here.
func TestParseNeverPanics(t *testing.T) {
	inputs := []string{
		"",
		":::",
		"Cipher :",
		": getInstance(X)",
		"Cipher : getInstance(",
		"Cipher : getInstance))",
		"Cipher : getInstance(X) ∧",
		"Cipher : ¬",
		"Cipher : X=",
		"Cipher : =X",
		"∧ ∨ ¬ ⊤",
		"Cipher : getInstance(X) ∧ X≥",
		"\x00\xff\xfe",
		"Cipher : getInstance(\"unterminated",
		"Cipher : getInstance(X) ∧ X=⊤byte[",
		"Cipher : f(((((((((((((((((((((((((((((((",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q panicked: %v", src, r)
				}
			}()
			syn, err := ParseSyntax(src)
			if err != nil {
				return
			}
			// Some junk may accidentally be grammatical; that is fine —
			// the requirement is only that failures are errors and that
			// whatever parses compiles and evaluates.
			t.Logf("ParseSyntax(%q) succeeded", src)
			for _, c := range syn.Clauses {
				Compile(c.Formula).Holds(nil, Context{})
			}
		}()
	}
}

// TestEvidenceBounded: a formula whose calls match in very many
// combinations stops recording evidence at maxEvidence matches instead of
// enumerating every assignment.
func TestEvidenceBounded(t *testing.T) {
	syn, err := ParseSyntax("Cipher : " + strings.Repeat("init ∧ ", 11) + "init")
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(t, `Cipher c = Cipher.getInstance("AES");`+strings.Repeat(` c.init(Cipher.ENCRYPT_MODE, key); c.init(Cipher.DECRYPT_MODE, key);`, 2))
	objs := res.ObjsOfType("Cipher")
	if len(objs) != 1 {
		t.Fatalf("%d Cipher objects", len(objs))
	}
	ev := Compile(syn.Clauses[0].Formula).Evidence(res.Uses[objs[0]], Context{})
	// 2 init events over 12 call atoms are 4,096 assignments of 12 matches.
	if len(ev) < maxEvidence || len(ev) >= maxEvidence+12 {
		t.Errorf("%d evidence matches, want the %d-match bound plus at most one assignment", len(ev), maxEvidence)
	}
}

// TestEvidencePerPath: a call's variable is decisive when a test on the
// call's own conjunctive path checks it, whatever the variable is named.
// X=AES tests getInstance's X; it says nothing of init's argument, under
// either name.
func TestEvidencePerPath(t *testing.T) {
	res := analyze(t, `Cipher c = Cipher.getInstance("AES"); c.init(Cipher.ENCRYPT_MODE, key);`)
	objs := res.ObjsOfType("Cipher")
	if len(objs) != 1 {
		t.Fatalf("%d Cipher objects", len(objs))
	}
	for _, src := range []string{
		"Cipher : getInstance(X) ∧ X=AES ∨ init(X, _)",
		"Cipher : getInstance(X) ∧ X=AES ∨ init(Y, _)",
	} {
		syn, err := ParseSyntax(src)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(Compile(syn.Clauses[0].Formula).Evidence(res.Uses[objs[0]], Context{}))
		if want := "[{0 [0]} {1 []}]"; got != want {
			t.Errorf("%s: evidence %s, want %s", src, got, want)
		}
	}
}
