package ruledsl

import (
	"testing"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/cryptoapi"
	"repro/rulepacks"
)

// FuzzRuleParse asserts the whole parse surface is total: for any input,
// ParsePack never fails (tolerant by contract — errors land in LineErrs
// and per-rule Err fields), and Parse/ParseSyntax return an error instead
// of panicking. The seed corpus starts from the shipped packs so every
// fuzz run covers the exact bytes we distribute, then adds formula-level
// and adversarial seeds.
func FuzzRuleParse(f *testing.F) {
	for name, content := range rulepacks.Files() {
		_ = name
		f.Add(content)
	}
	for _, seed := range []string{
		// Single well-formed lines, Unicode and ASCII-fallback syntax.
		`X1 | desc | Cipher : getInstance(X) ∧ (X=AES ∨ X=AES/ECB)`,
		`X2 | desc | Cipher : getInstance(X) /\ ~(X=DES \/ X=RC4)`,
		`X3 | desc | PBEKeySpec : <init>(_,X,_,_) ∧ X≠⊤byte[]`,
		`X4 | desc | KeyGenerator : init(X) ∧ X<128`,
		`X5 | desc | Cipher : startsWith(X, AES/CBC) ∧ getInstance(X)`,
		`X6 | desc | SecureRandom[android<4.4] : <init>()`,
		// Pack-structure pathologies.
		"",
		"# only a comment\n\n#another\n",
		"no pipes at all",
		"id | description only",
		"id | desc | ",
		"id | desc | Cipher :",
		"id | desc | : getInstance(X)",
		"a|b|c|d|e",
		" R7 | spaced | Cipher : getInstance(X) ∧ X=AES \n",
		// Formula-level pathologies.
		`B1 | x | Cipher : getInstance(X ∧ X=AES`,
		`B2 | x | Cipher : (((getInstance(X))))`,
		`B3 | x | Cipher : getInstance(X) ∧ X<notanumber`,
		`B4 | x | Cipher : getInstance(X) ∧ startsWith(X)`,
		`B5 | x | Nope : getInstance(X)`,
		`B6 | x | Cipher : ¬¬¬¬getInstance(X)`,
		"B7 | x | Cipher : getInstance(\x00\xff)",
		`B8 | x | Cipher : getInstance(X) ∧ X=⊤`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, content string) {
		pack := ParsePack("fuzz.rules", content) // any panic fails the run
		if pack == nil {
			t.Fatal("ParsePack returned nil")
		}
		for _, pr := range pack.Rules {
			// Tolerant-parse invariant: a pack rule either parsed or
			// carries its error — never neither.
			if pr.Syntax == nil && pr.Err == nil {
				t.Errorf("pack rule %q: nil Syntax and nil Err", pr.ID)
			}
			if pr.Syntax == nil {
				continue
			}
			// Whatever parses compiles, and its Program is total and holds
			// exactly when it has evidence (agrees).
			for _, c := range pr.Syntax.Clauses {
				p := Compile(c.Formula)
				for _, ctx := range []Context{{}, {Android: true, MinSDKVersion: 16}} {
					if !agrees(p, fuzzEvents, ctx) {
						t.Errorf("rule %q clause %s: Holds = %t, %d evidence matches", pr.ID, c.Class,
							p.Holds(fuzzEvents, ctx), len(p.Evidence(fuzzEvents, ctx)))
					}
				}
			}
		}
	})
}

// fuzzEvents is the object every fuzzed formula is evaluated against: one
// event per argument shape the rules test.
var fuzzEvents = func() []analysis.Event {
	var out []analysis.Event
	for _, args := range [][]absdom.Value{
		{absdom.StrConst("AES")},
		{absdom.StrConst("aes/ecb/PKCS5Padding"), absdom.StrConst("BC")},
		{absdom.TopStr()},
		{absdom.IntConst("999"), absdom.ConstByteArr(), absdom.IntConst("0x10")},
		{absdom.TopObj("char[]"), absdom.ConstByteArr(), absdom.IntConst("1000"), absdom.TopInt()},
	} {
		for _, name := range []string{"getInstance", "init", "<init>"} {
			out = append(out, analysis.Event{Sig: cryptoapi.MethodSig{Class: "Cipher", Name: name}, Args: args})
		}
	}
	return out
}()
