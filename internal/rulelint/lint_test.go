package rulelint

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ruledsl"
	"repro/internal/rules"
)

func lintSrc(t *testing.T, name, src string) *Report {
	t.Helper()
	pack := ruledsl.ParsePack(name, src)
	return Lint([]*ruledsl.Pack{pack}, Options{Builtins: rules.All()})
}

// TestDefectivePackGolden pins the full rendered diagnostics — codes,
// severities, and pack-absolute line:col positions — for the seeded
// defect taxonomy: unknown class/method, wrong arity, type mismatch,
// unsatisfiable conjunction, subsumed/duplicate rules, ID collision,
// unbound variables, and structural/parse failures. Every rule on a
// one-argument Cipher.getInstance is also subsumed by R5, which flags each
// Cipher without the BouncyCastle provider. D10 is not subsumed by R7:
// X=AES/ECB also matches "aes/ecb", whose lower-case mode ecb(X) misses.
func TestDefectivePackGolden(t *testing.T) {
	src := `# defective pack
D1 | unknown class | Ciphr : getInstance(X)
D2 | unknown method | Cipher : getInstnce(X)
D3 | wrong arity | Cipher : init(X)
D4 | type mismatch | Cipher : init(X,_) ∧ startsWith(X,AES)
D5 | unsat | SecretKeySpec : <init>(X,Y) ∧ Y=AES ∧ Y=DES
D6 | empty range | PBEKeySpec : <init>(_,_,_,X) ∧ X>256 ∧ X<128
D7 | bad prefix | Cipher : getInstance(X) ∧ startsWith(X,ZES)
D8 | dead disjunct | Cipher : getInstance(X) ∧ (X=RC5 ∨ (X=DES ∧ X=RC2))
R7 | collision | Mac : init(_)
D9 | duplicate | MessageDigest : getInstance(X) ∧ X=SHA-1
D10 | subsumed | Cipher : getInstance(X) ∧ X=AES/ECB
D11 | unbound | Cipher : getInstance(_) ∧ Y=AES
D12 | dead literal | Cipher : init(AES,_)
bad line
D13 | parse error | Cipher : getInstance(X) ∧ X=
D14 | duplicate | MessageDigest : getInstance(X, …) ∧ weakDigest(X)
D15 | subsumed | Cipher : getInstance(X, …) ∧ X=DES/CBC/PKCS5Padding
`
	rep := lintSrc(t, "defective.rules", src)
	want := `defective.rules:2:22: error RL101: rule D1: unknown API class "Ciphr" (did you mean "Cipher"?)
defective.rules:3:32: error RL102: rule D2: class Cipher has no modeled method "getInstnce" (did you mean "getInstance"?)
defective.rules:4:29: error RL103: rule D3: Cipher.init has no 1-argument overload (modeled arities: 2, 3, 4)
defective.rules:5:43: error RL104: rule D4: startsWith(X,AES) but X only binds at int parameters
defective.rules:6:52: error RL201: rule D5: clause SecretKeySpec can never match: Y=DES contradicts Y=AES
defective.rules:7:59: error RL202: rule D6: clause PBEKeySpec can never match: numeric range for X is empty (257 ≤ X ≤ 127)
defective.rules:8:19: warn RL302: rule D7: every match of this rule is already matched by built-in rule R5
defective.rules:8:45: warn RL203: rule D7: prefix "ZES" matches no modeled algorithm string
defective.rules:9:22: warn RL302: rule D8: every match of this rule is already matched by built-in rule R5
defective.rules:9:66: warn RL204: rule D8: disjunct {X=DES ∧ X=RC2} can never match: X=RC2 contradicts X=DES
defective.rules:10:18: error RL010: rule R7: rule id R7 collides with built-in rule R7
defective.rules:11:18: warn RL302: rule D9: every match of this rule is already matched by built-in rule R1
defective.rules:12:18: warn RL302: rule D10: every match of this rule is already matched by built-in rule R5
defective.rules:13:17: warn RL302: rule D11: every match of this rule is already matched by built-in rule R5
defective.rules:13:43: error RL401: rule D11: variable Y is constrained but never bound by a call atom
defective.rules:14:36: warn RL402: rule D12: literal "AES" can never match parameter 1 of Cipher.init (type int)
defective.rules:15: error RL002: want 'id | description | formula', got "bad line"
defective.rules:16:49: error RL001: rule D13: expected literal, found EOF
defective.rules:17:19: warn RL301: rule D14: duplicate of built-in rule R1: identical trigger
defective.rules:17:19: warn RL302: rule D14: this rule shadows rule D9 (defective.rules line 11): every match of that rule also matches this one
defective.rules:18:18: warn RL302: rule D15: every match of this rule is already matched by built-in rule R8
rulelint: 1 pack(s), 16 rule(s): 10 error(s), 11 warning(s)
`
	if got := rep.Render(); got != want {
		t.Errorf("rendered diagnostics mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !rep.HasErrors() {
		t.Error("HasErrors = false")
	}
}

// TestDiagJSONGolden pins the JSON rendering of a single finding.
func TestDiagJSONGolden(t *testing.T) {
	rep := lintSrc(t, "p.rules", "B1 | bad | Cipher : getInstnce(X)\n")
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "packs": 1,
  "rules": 1,
  "diagnostics": [
    {
      "code": "RL102",
      "severity": "error",
      "pack": "p.rules",
      "rule": "B1",
      "line": 1,
      "col": 21,
      "msg": "class Cipher has no modeled method \"getInstnce\" (did you mean \"getInstance\"?)"
    }
  ]
}`
	if string(j) != want {
		t.Errorf("JSON mismatch:\n--- got ---\n%s\n--- want ---\n%s", j, want)
	}
}

// TestCleanPack: a well-formed pack over the extended surface produces no
// findings at all.
func TestCleanPack(t *testing.T) {
	src := `T1 | weak TLS | SSLContext : getInstance(X) ∧ (X=SSL ∨ X=SSLv3)
T2 | short sym key | KeyGenerator : init(X) ∧ X<128
T3 | hostname off | HttpsURLConnection : setDefaultHostnameVerifier(_)
T4 | const store pw | KeyStore : load(_,X) ∧ X≠⊤char[]
`
	rep := lintSrc(t, "good.rules", src)
	if rep.HasFindings() {
		t.Errorf("clean pack produced findings:\n%s", rep.Render())
	}
	if rep.Rules != 4 || rep.Packs != 1 {
		t.Errorf("Rules=%d Packs=%d", rep.Rules, rep.Packs)
	}
}

// TestBuiltinsSelfConsistent: linting zero packs against the built-ins
// finds nothing (built-ins are never findings), and every built-in
// formula parses into the syntax the subsumption pass compares.
func TestBuiltinsSelfConsistent(t *testing.T) {
	rep := Lint(nil, Options{Builtins: rules.All()})
	if rep.HasFindings() {
		t.Errorf("findings with no packs:\n%s", rep.Render())
	}
	for _, r := range rules.All() {
		if _, err := ruledsl.ParseSyntax(r.Formula); err != nil {
			t.Errorf("built-in %s formula does not parse: %v", r.ID, err)
		}
	}
}

func TestImplication(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		// Conjunction stronger than its parts.
		{"Cipher : getInstance(X) ∧ X=AES", "Cipher : getInstance(X)", true},
		{"Cipher : getInstance(X)", "Cipher : getInstance(X) ∧ X=AES", false},
		// Disjunction weaker.
		{"Cipher : getInstance(X) ∧ X=AES", "Cipher : getInstance(X) ∧ (X=AES ∨ X=DES)", true},
		{"Cipher : getInstance(X) ∧ (X=AES ∨ X=DES)", "Cipher : getInstance(X) ∧ X=AES", false},
		// Numeric bound widening.
		{"PBEKeySpec : <init>(_,_,X,_) ∧ X<500", "PBEKeySpec : <init>(_,_,X,_) ∧ X<1000", true},
		{"PBEKeySpec : <init>(_,_,X,_) ∧ X<1000", "PBEKeySpec : <init>(_,_,X,_) ∧ X<500", false},
		{"PBEKeySpec : <init>(_,_,X,_) ∧ X≤999", "PBEKeySpec : <init>(_,_,X,_) ∧ X<1000", true},
		// Equality implies prefix.
		{"Cipher : getInstance(X) ∧ X=AES/ECB", "Cipher : getInstance(X) ∧ startsWith(X,AES)", true},
		// Longer prefix implies shorter.
		{"Cipher : getInstance(X) ∧ startsWith(X,AES/ECB)", "Cipher : getInstance(X) ∧ startsWith(X,AES)", true},
		{"Cipher : getInstance(X) ∧ startsWith(X,AES)", "Cipher : getInstance(X) ∧ startsWith(X,AES/ECB)", false},
		// Constrained call implies bare call.
		{"SecureRandom : setSeed(X)", "SecureRandom : setSeed", true},
		// Different classes never imply.
		{"Cipher : getInstance(X) ∧ X=DES", "Mac : getInstance(X) ∧ X=DES", false},
		// Normalized literals: SHA-1 == SHA1.
		{"MessageDigest : getInstance(X) ∧ X=SHA1", "MessageDigest : getInstance(X) ∧ X=SHA-1", true},
		// An equality implies a named test that holds on every spelling it
		// admits: the literal and the modeled strings equal to it, in
		// upper and lower case.
		{"MessageDigest : getInstance(X) ∧ X=SHA-1", "MessageDigest : getInstance(X) ∧ weakDigest(X)", true},
		{"MessageDigest : getInstance(X) ∧ X=SHA-1", "MessageDigest : getInstance(X) ∧ name(X, SHA-1)", false}, // "SHA1"
		{"MessageDigest : getInstance(X) ∧ X=SHA-256", "MessageDigest : getInstance(X) ∧ weakDigest(X)", false},
		{"Cipher : getInstance(X) ∧ X=DES", "Cipher : getInstance(X) ∧ alg(X, DES)", true},
		{"Cipher : getInstance(X) ∧ X=DESede", "Cipher : getInstance(X) ∧ alg(X, DES)", false},
		{"Cipher : getInstance(X) ∧ X=AES/CBC/NoPadding", "Cipher : getInstance(X) ∧ prefix(X, AES/CBC)", true},
		{"Cipher : getInstance(X) ∧ X=AES", "Cipher : getInstance(X) ∧ str(X)", true},
		{"KeyGenerator : init(X) ∧ X=128", "KeyGenerator : init(X) ∧ str(X)", false}, // an int constant
		{"Cipher : getInstance(X) ∧ X=\"AES/ECB\"", "Cipher : getInstance(X) ∧ ecb(X)", true},
		{"Cipher : getInstance(X) ∧ X=AES/ECB", "Cipher : getInstance(X) ∧ ecb(X)", false}, // "aes/ecb"
		{"Cipher : getInstance(X) ∧ ecb(X)", "Cipher : getInstance(X) ∧ X=AES/ECB", false},
	}
	for _, c := range cases {
		sa, err := ruledsl.ParseSyntax(c.a)
		if err != nil {
			t.Fatalf("parse %q: %v", c.a, err)
		}
		sb, err := ruledsl.ParseSyntax(c.b)
		if err != nil {
			t.Fatalf("parse %q: %v", c.b, err)
		}
		if got, _, decided := compare(newTrigger(sa), newTrigger(sb)); !decided || got != c.want {
			t.Errorf("implies(%q, %q) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

func TestTelemetryFold(t *testing.T) {
	rep := lintSrc(t, "p.rules", "B1 | bad | Cipher : getInstnce(X)\nB2 | ok | Cipher : getInstance(X) ∧ startsWith(X,QQQ)\n")
	reg := obs.NewRegistry()
	rep.Fold(reg)
	checks := map[string]int64{
		"rulelint.packs":          1,
		"rulelint.rules":          2,
		"rulelint.findings":       3,
		"rulelint.errors":         1,
		"rulelint.warnings":       2,
		"rulelint.findings.RL102": 1,
		"rulelint.findings.RL203": 1,
		"rulelint.findings.RL302": 1, // B2 is subsumed by R5
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLaxDowngrade-adjacent helper behavior: the report distinguishes
// errors from warnings so the loader can downgrade.
func TestSeverityCounts(t *testing.T) {
	rep := lintSrc(t, "p.rules", "B1 | warn only | Cipher : getInstance(X) ∧ startsWith(X,QQQ)\n")
	if rep.HasErrors() || rep.Warnings() != 2 {
		t.Errorf("errors=%d warnings=%d, want 0/2", rep.Errors(), rep.Warnings())
	}
	for _, w := range []string{"warn RL203", "warn RL302"} {
		if !strings.Contains(rep.Render(), w) {
			t.Errorf("render missing %s:\n%s", w, rep.Render())
		}
	}
}

// TestBuiltinPackLints lints the built-in rules as the pack they are: each
// carries the Syntax it runs, and the only findings are the five
// CryptoLint re-labels, each an exact duplicate of its Figure 9 rule.
func TestBuiltinPackLints(t *testing.T) {
	for _, r := range append(rules.All(), rules.CryptoLint()...) {
		if r.Syntax == nil || r.Syntax.Source != r.Formula {
			t.Errorf("built-in %s: Syntax does not hold its Formula", r.ID)
		}
	}
	rep := Lint([]*ruledsl.Pack{ruledsl.ParsePack("builtin.rules", rules.BuiltinText)}, Options{})
	var got []string
	for _, d := range rep.Diags {
		got = append(got, d.RuleID+" "+d.Code+" "+d.Msg)
	}
	want := []string{}
	for cl, r := range map[string]string{"CL1": "R7", "CL2": "R9", "CL3": "R10", "CL4": "R2", "CL5": "R11"} {
		want = append(want, fmt.Sprintf("%s RL301 duplicate of rule %s (builtin.rules line %d): identical trigger",
			cl, r, packLine(t, r)))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("built-in pack findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// packLine is the line of a rule in the built-in pack.
func packLine(t *testing.T, id string) int {
	for _, pr := range ruledsl.ParsePack("builtin.rules", rules.BuiltinText).Rules {
		if pr.ID == id {
			return pr.Line
		}
	}
	t.Fatalf("no built-in %s", id)
	return 0
}

// TestThreeArgPBESubsumedByR2 pins the finding that retired the shipped
// pack rule P204: R2 flags a low iteration count at any PBEKeySpec arity,
// so a rule for the 3-argument constructor adds no match.
func TestThreeArgPBESubsumedByR2(t *testing.T) {
	rep := lintSrc(t, "keygen-prng.rules",
		"P204 | Do not derive keys with fewer than 1000 PBE iterations (3-argument spec) | PBEKeySpec : <init>(_,_,X) ∧ X<1000\n")
	want := "keygen-prng.rules:1:83: warn RL302: rule P204: every match of this rule is already matched by built-in rule R2\n" +
		"rulelint: 1 pack(s), 1 rule(s): 0 error(s), 1 warning(s)\n"
	if got := rep.Render(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

// TestNewAtomsLint pins the conformance, satisfiability and subsumption
// handling of the atoms the built-ins brought in: rest patterns, quoted
// literals and named tests. Two different named tests never compare equal.
func TestNewAtomsLint(t *testing.T) {
	src := `N1 | rest arity | PBEKeySpec : <init>(_,_,_,_,X,…)
N2 | quoted type | Cipher : init(X,_) ∧ X="BC"
N3 | test type | KeyGenerator : init(X) ∧ ecb(X)
N4 | str conflict | Mac : getInstance(X, …) ∧ prefix(X, Hmac) ∧ ¬str(X)
N5 | bad prefix | Mac : getInstance(X) ∧ prefix(X, ZZZ)
N6 | named | Mac : getInstance(X) ∧ name(X, HmacSHA1)
N7 | prefixed | Mac : getInstance(X) ∧ prefix(X, HmacSHA1)
N8 | named again | Mac : getInstance(X) ∧ name(X, hmacsha1)
N9 | any arity | Mac : getInstance(X, …) ∧ name(X, HmacSHA1) ∧ str(X)
`
	want := `new.rules:1:32: error RL103: rule N1: PBEKeySpec.<init> has no overload of 5 or more arguments (modeled arities: 1, 3, 4)
new.rules:2:41: error RL104: rule N2: constraint X="BC" can never hold: X only binds at int parameters
new.rules:3:43: error RL104: rule N3: ecb(X) but X only binds at SecureRandom/int parameters
new.rules:4:66: error RL201: rule N4: clause Mac can never match: prefix(X,Hmac) needs a string constant but ¬str(X)
new.rules:5:42: warn RL203: rule N5: prefix "ZZZ" matches no modeled algorithm string
new.rules:8:20: warn RL301: rule N8: duplicate of rule N6 (new.rules line 6): identical trigger
new.rules:9:18: warn RL302: rule N9: this rule shadows rule N6 (new.rules line 6): every match of that rule also matches this one
new.rules:9:18: warn RL302: rule N9: this rule shadows rule N8 (new.rules line 8): every match of that rule also matches this one
rulelint: 1 pack(s), 9 rule(s): 4 error(s), 4 warning(s)
`
	if got := lintSrc(t, "new.rules", src).Render(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}
