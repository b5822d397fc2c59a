package rulelint

import (
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
// unbound variables, and structural/parse failures.
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
`
	rep := lintSrc(t, "defective.rules", src)
	want := `defective.rules:2:22: error RL101: rule D1: unknown API class "Ciphr" (did you mean "Cipher"?)
defective.rules:3:32: error RL102: rule D2: class Cipher has no modeled method "getInstnce" (did you mean "getInstance"?)
defective.rules:4:29: error RL103: rule D3: Cipher.init has no 1-argument overload (modeled arities: 2, 3, 4)
defective.rules:5:43: error RL104: rule D4: startsWith(X,AES) but X only binds at int parameters
defective.rules:6:52: error RL201: rule D5: clause SecretKeySpec can never match: Y=DES contradicts Y=AES
defective.rules:7:59: error RL202: rule D6: clause PBEKeySpec can never match: numeric range for X is empty (257 ≤ X ≤ 127)
defective.rules:8:45: warn RL203: rule D7: prefix "ZES" matches no modeled algorithm string
defective.rules:9:66: warn RL204: rule D8: disjunct {X=DES ∧ X=RC2} can never match: X=RC2 contradicts X=DES
defective.rules:10:18: error RL010: rule R7: rule id R7 collides with built-in rule R7
defective.rules:11:18: warn RL301: rule D9: duplicate of built-in rule R1: identical trigger
defective.rules:12:18: warn RL302: rule D10: every match of this rule is already matched by built-in rule R7
defective.rules:13:43: error RL401: rule D11: variable Y is constrained but never bound by a call atom
defective.rules:14:36: warn RL402: rule D12: literal "AES" can never match parameter 1 of Cipher.init (type int)
defective.rules:15: error RL002: want 'id | description | formula', got "bad line"
defective.rules:16:49: error RL001: rule D13: expected literal, found EOF
rulelint: 1 pack(s), 14 rule(s): 10 error(s), 5 warning(s)
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
		"rulelint.findings":       2,
		"rulelint.errors":         1,
		"rulelint.warnings":       1,
		"rulelint.findings.RL102": 1,
		"rulelint.findings.RL203": 1,
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
	if rep.HasErrors() || rep.Warnings() != 1 {
		t.Errorf("errors=%d warnings=%d, want 0/1", rep.Errors(), rep.Warnings())
	}
	if !strings.Contains(rep.Render(), "warn RL203") {
		t.Errorf("render missing warn RL203:\n%s", rep.Render())
	}
}
