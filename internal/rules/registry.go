package rules

import (
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/cryptoapi"
)

// The 13 security rules of the paper's Figure 9.
var (
	// R1: Use SHA-256 instead of SHA-1.
	R1 = &Rule{
		ID:          "R1",
		Description: "Use SHA-256 instead of SHA-1",
		Formula:     "MessageDigest : getInstance(X) ∧ X=SHA-1",
		Ref:         "Stevens et al., the first SHA-1 collision (2017)",
		Clauses:     []Clause{clause(cryptoapi.MessageDigest, weakDigest)},
	}

	// R2: PBE iteration count must be at least 1000.
	R2 = &Rule{
		ID:          "R2",
		Description: "Do not use password-based encryption with iteration count less than 1000",
		Formula:     "PBEKeySpec : <init>(_,_,X,_) ∧ X<1000",
		Ref:         "Abadi & Warinschi, Password-Based Encryption Analyzed (2005)",
		Clauses:     []Clause{clause(cryptoapi.PBEKeySpec, fewPBEIterations)},
	}

	// R3: SecureRandom should be used with SHA1PRNG.
	R3 = &Rule{
		ID:          "R3",
		Description: "SecureRandom should be used with SHA1PRNG",
		Formula:     "SecureRandom : <init>(X) ∧ X≠SHA-1PRNG",
		Ref:         "The Right Way to Use SecureRandom (2015)",
		Clauses:     []Clause{clause(cryptoapi.SecureRandom, notSHA1PRNG...)},
	}

	// R4: avoid getInstanceStrong on server-side code.
	R4 = &Rule{
		ID:          "R4",
		Description: "SecureRandom with getInstanceStrong should be avoided",
		Formula:     "SecureRandom : ¬getInstanceStrong",
		Ref:         "Proper use of Java SecureRandom (2016)",
		Clauses:     []Clause{clause(cryptoapi.SecureRandom, instanceStrong)},
	}

	// R5: use the BouncyCastle provider for Cipher.
	R5 = &Rule{
		ID:          "R5",
		Description: "Use the BouncyCastle provider for Cipher",
		Formula:     "Cipher : getInstance(_,X) ∧ X≠BC",
		Ref:         "Bouncy Castle vs JCA key-size restrictions (2016)",
		Clauses:     []Clause{clause(cryptoapi.Cipher, notBouncyCastle...)},
	}

	// R6: Android SecureRandom PRNG vulnerability on SDK 16-18.
	R6 = &Rule{
		ID:            "R6",
		Description:   "The underlying PRNG is vulnerable on Android v16-18",
		Formula:       "SecureRandom : <init>(_) ∧ ¬LPRNG ∧ MIN_SDK_VERSION≥16",
		Ref:           "Kaplan et al., Attacking the Linux PRNG on Android (WOOT'14)",
		Clauses:       []Clause{clause(cryptoapi.SecureRandom, androidPRNG...)},
		ApplicableCtx: func(ctx Context) bool { return ctx.Android },
	}

	// R7: do not use Cipher in AES/ECB mode.
	R7 = &Rule{
		ID:          "R7",
		Description: "Do not use Cipher in AES/ECB mode",
		Formula:     "Cipher : getInstance(X) ∧ (X=AES ∨ X=AES/ECB)",
		Ref:         "Bellare & Rogaway, Introduction to Modern Cryptography",
		Clauses:     []Clause{clause(cryptoapi.Cipher, ecb)},
	}

	// R8: do not use DES.
	R8 = &Rule{
		ID:          "R8",
		Description: "Do not use Cipher with DES mode",
		Formula:     "Cipher : getInstance(X) ∧ X=DES",
		Ref:         "CERT MSC61-J: do not use insecure or weak cryptographic algorithms",
		Clauses:     []Clause{clause(cryptoapi.Cipher, des)},
	}

	// R9: IV must not be a static byte array.
	R9 = &Rule{
		ID:          "R9",
		Description: "IvParameterSpec should not be initialized with a static byte array",
		Formula:     "IvParameterSpec : <init>(X) ∧ X≠⊤byte[]",
		Ref:         "Bellare & Rogaway, Introduction to Modern Cryptography",
		Clauses:     []Clause{clause(cryptoapi.IvParameterSpec, ctorConstArg(0))},
	}

	// R10: secret keys must not be static.
	R10 = &Rule{
		ID:          "R10",
		Description: "SecretKeySpec should not be static",
		Formula:     "SecretKeySpec : <init>(X) ∧ X≠⊤byte[]",
		Ref:         "CryptoLint rule 3 (Egele et al., CCS'13)",
		Clauses:     []Clause{clause(cryptoapi.SecretKeySpec, ctorConstArg(0))},
	}

	// R11: PBE salt must not be static.
	R11 = &Rule{
		ID:          "R11",
		Description: "Do not use password-based encryption with static salt",
		Formula:     "PBEKeySpec : <init>(_,X,_,_) ∧ X≠⊤byte[]",
		Ref:         "CryptoLint rule 4 (Egele et al., CCS'13)",
		Clauses:     []Clause{clause(cryptoapi.PBEKeySpec, ctorConstArg(1))},
	}

	// R12: SecureRandom seeds must not be static.
	R12 = &Rule{
		ID:          "R12",
		Description: "Do not use SecureRandom static seed",
		Formula:     "SecureRandom : setSeed(X) ∧ X≠⊤byte[]",
		Ref:         "CryptoLint rule 6 (Egele et al., CCS'13)",
		Clauses:     []Clause{clause(cryptoapi.SecureRandom, staticSeed)},
	}

	// R13: integrity is missing after an RSA-based symmetric key exchange.
	R13 = &Rule{
		ID:          "R13",
		Description: "Missing integrity check after symmetric key exchange",
		Formula: "(Cipher : getInstance(X) ∧ startsWith(X,AES/CBC)) ∧ " +
			"(Cipher : getInstance(Y) ∧ Y=RSA) ∧ ¬(Mac : getInstance(Z) ∧ startsWith(Z,Hmac))",
		Ref: "Top 10 developer crypto mistakes (2017)",
		Clauses: []Clause{
			clause(cryptoapi.Cipher, transformPrefix("AES/CBC")),
			clause(cryptoapi.Cipher, transformPrefix("RSA")),
			negated(clause(cryptoapi.Mac, transformPrefix("HMAC"))),
		},
	}
)

// All returns the 13 elicited rules of Figure 9, in order.
func All() []*Rule {
	return []*Rule{R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13}
}

// The five CryptoLint reference rules of §6.2 (subset of Figure 9,
// re-labeled). CL1 = ECB, CL2 = static IV, CL3 = constant key,
// CL4 = low PBE iteration count, CL5 = static salt.
var (
	CL1 = &Rule{ID: "CL1", Description: "Do not use ECB mode for encryption",
		Formula: R7.Formula, Clauses: R7.Clauses}
	CL2 = &Rule{ID: "CL2", Description: "Do not use a static initialization vector",
		Formula: R9.Formula, Clauses: R9.Clauses}
	CL3 = &Rule{ID: "CL3", Description: "Do not use constant encryption keys",
		Formula: R10.Formula, Clauses: R10.Clauses}
	CL4 = &Rule{ID: "CL4", Description: "Do not use fewer than 1000 PBE iterations",
		Formula: R2.Formula, Clauses: R2.Clauses}
	CL5 = &Rule{ID: "CL5", Description: "Do not use static salts for PBE",
		Formula: R11.Formula, Clauses: R11.Clauses}
)

// CryptoLint returns the CL1–CL5 reference rules, in order.
func CryptoLint() []*Rule {
	return []*Rule{CL1, CL2, CL3, CL4, CL5}
}

// ByID resolves a rule identifier (R1..R13, CL1..CL5).
func ByID(id string) *Rule {
	for _, r := range append(All(), CryptoLint()...) {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Built-in clause matchers
// ---------------------------------------------------------------------------

// eventTest is one event test of a built-in clause: a usage event calling
// method that test accepts (nil accepts them all) satisfies the clause, and
// arg is the argument position that decided it (noArg: the call itself is
// the evidence).
type eventTest struct {
	method string
	arg    int
	test   func(ev *analysis.Event, ctx Context) bool
}

const noArg = -1

func (t *eventTest) accepts(ev *analysis.Event, ctx Context) bool {
	return ev.Sig.Name == t.method && (t.test == nil || t.test(ev, ctx))
}

// clause builds a built-in clause from its event tests, deriving both Pred
// and Find from them so that the two accept exactly the same events. Pred
// runs per object wherever rules are checked, so it stops at the first
// match and allocates nothing; Find lists every match with its decisive
// argument for witness evidence.
func clause(class string, tests ...eventTest) Clause {
	return Clause{
		Class: class,
		Pred: func(res *analysis.Result, obj *absdom.AObj, ctx Context) bool {
			evs := res.Uses[obj]
			for j := range evs {
				for i := range tests {
					if tests[i].accepts(&evs[j], ctx) {
						return true
					}
				}
			}
			return false
		},
		Find: func(res *analysis.Result, obj *absdom.AObj, ctx Context) []EventMatch {
			var out []EventMatch
			evs := res.Uses[obj]
			for j := range evs {
				for i := range tests {
					if !tests[i].accepts(&evs[j], ctx) {
						continue
					}
					m := EventMatch{EventIndex: j}
					if tests[i].arg != noArg {
						m.Args = []int{tests[i].arg}
					}
					out = append(out, m)
				}
			}
			return out
		},
	}
}

func negated(c Clause) Clause {
	c.Negated = true
	return c
}

// The event tests of the built-in clauses.
var (
	weakDigest = eventTest{"getInstance", 0, func(ev *analysis.Event, _ Context) bool {
		s, ok := argStr(ev, 0)
		return ok && isWeakDigest(s)
	}}

	// <init>(pw, salt, iterations[, keyLen]): the count is argument 3.
	fewPBEIterations = eventTest{"<init>", 2, func(ev *analysis.Event, _ Context) bool {
		return argIntLess(ev, 2, cryptoapi.MinPBEIterations)
	}}

	// Created without selecting SHA1PRNG: plain constructors, getInstance
	// with an unknown algorithm, or getInstance with a different one.
	notSHA1PRNG = []eventTest{
		{"<init>", noArg, nil},
		{"getInstance", noArg, func(ev *analysis.Event, _ Context) bool {
			_, ok := argStr(ev, 0)
			return !ok
		}},
		{"getInstance", 0, func(ev *analysis.Event, _ Context) bool {
			s, ok := argStr(ev, 0)
			return ok && normalizeAlg(s) != cryptoapi.SHA1PRNG
		}},
	}

	instanceStrong = eventTest{"getInstanceStrong", noArg, nil}

	// No provider argument (the default, non-BC provider) or another one.
	notBouncyCastle = []eventTest{
		{"getInstance", noArg, func(ev *analysis.Event, _ Context) bool {
			return len(ev.Args) < 2
		}},
		{"getInstance", 1, func(ev *analysis.Event, _ Context) bool {
			s, ok := argStr(ev, 1)
			return len(ev.Args) >= 2 && (!ok || s != cryptoapi.ProviderBouncyCastle)
		}},
	}

	androidPRNG = []eventTest{
		{"<init>", noArg, vulnerableAndroidPRNG},
		{"getInstance", noArg, vulnerableAndroidPRNG},
	}

	ecb = eventTest{"getInstance", 0, func(ev *analysis.Event, _ Context) bool {
		s, ok := argStr(ev, 0)
		return ok && isECBTransformation(s)
	}}

	des = eventTest{"getInstance", 0, func(ev *analysis.Event, _ Context) bool {
		s, ok := argStr(ev, 0)
		return ok && normalizeAlg(cryptoapi.ParseTransformation(s).Algorithm) == "DES"
	}}

	staticSeed = eventTest{"setSeed", 0, func(ev *analysis.Event, _ Context) bool {
		return argIsConstData(ev, 0)
	}}
)

// vulnerableAndroidPRNG holds on Android 16–18 without the Linux-PRNG fix.
func vulnerableAndroidPRNG(_ *analysis.Event, ctx Context) bool {
	return !ctx.HasLPRNG && ctx.MinSDKVersion >= 16
}

// ctorConstArg flags constructors whose i-th argument is compile-time
// constant data (X ≠ ⊤byte[]).
func ctorConstArg(i int) eventTest {
	return eventTest{"<init>", i, func(ev *analysis.Event, _ Context) bool {
		return argIsConstData(ev, i)
	}}
}

// transformPrefix matches getInstance transformations by prefix.
func transformPrefix(prefix string) eventTest {
	prefix = normalizeAlg(prefix)
	return eventTest{"getInstance", 0, func(ev *analysis.Event, _ Context) bool {
		s, ok := argStr(ev, 0)
		return ok && strings.HasPrefix(normalizeAlg(s), prefix)
	}}
}
