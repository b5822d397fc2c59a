// Package cryptoapi models the slice of the Java Cryptography Architecture
// that DiffCode targets: the six API classes of the paper's Figure 5, their
// factory/constructor/configuration methods, and domain knowledge about
// transformation strings, algorithms, modes, and providers that the security
// rules reason about.
package cryptoapi

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Target API class names (paper Figure 5).
const (
	Cipher          = "Cipher"
	IvParameterSpec = "IvParameterSpec"
	MessageDigest   = "MessageDigest"
	SecretKeySpec   = "SecretKeySpec"
	SecureRandom    = "SecureRandom"
	PBEKeySpec      = "PBEKeySpec"
	// Mac is not a clustering target but appears in rule R13.
	Mac = "Mac"
)

// TargetClasses lists the classes for which usage changes are learned, in the
// paper's order.
var TargetClasses = []string{
	Cipher, IvParameterSpec, MessageDigest, SecretKeySpec, SecureRandom,
	PBEKeySpec,
}

// IsTarget reports whether name is one of the six target classes.
func IsTarget(name string) bool {
	for _, t := range TargetClasses {
		if t == name {
			return true
		}
	}
	return false
}

// MethodSig is a method signature within the modeled API. Param types use
// simple names ("String", "int", "byte[]", "Key", ...).
type MethodSig struct {
	Class  string   // declaring class
	Name   string   // method name, "<init>" for constructors
	Params []string // parameter type names
	Static bool     // static (factory) method
	Ret    string   // return type, "" for void
}

// String renders "Cipher.getInstance(String)".
func (m MethodSig) String() string {
	return m.Class + "." + m.Name + "(" + strings.Join(m.Params, ",") + ")"
}

// Key renders a compact identity key used for event deduplication.
func (m MethodSig) Key() string { return m.String() }

// apiMethods lists the modeled methods. The analyzer matches calls by class,
// name and arity (Java-style overload resolution by count; the abstraction
// does not need exact param-type matching).
var apiMethods = []MethodSig{
	// Cipher.
	{Class: Cipher, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: Cipher},
	{Class: Cipher, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: Cipher},
	{Class: Cipher, Name: "init", Params: []string{"int", "Key"}},
	{Class: Cipher, Name: "init", Params: []string{"int", "Key", "AlgorithmParameterSpec"}},
	{Class: Cipher, Name: "init", Params: []string{"int", "Key", "AlgorithmParameterSpec", "SecureRandom"}},
	{Class: Cipher, Name: "init", Params: []string{"int", "Certificate"}},
	{Class: Cipher, Name: "doFinal", Params: []string{"byte[]"}, Ret: "byte[]"},
	{Class: Cipher, Name: "doFinal", Params: []string{}, Ret: "byte[]"},
	{Class: Cipher, Name: "doFinal", Params: []string{"byte[]", "int", "int"}, Ret: "byte[]"},
	{Class: Cipher, Name: "update", Params: []string{"byte[]"}, Ret: "byte[]"},
	{Class: Cipher, Name: "wrap", Params: []string{"Key"}, Ret: "byte[]"},
	{Class: Cipher, Name: "unwrap", Params: []string{"byte[]", "String", "int"}, Ret: "Key"},

	// IvParameterSpec.
	{Class: IvParameterSpec, Name: "<init>", Params: []string{"byte[]"}},
	{Class: IvParameterSpec, Name: "<init>", Params: []string{"byte[]", "int", "int"}},

	// MessageDigest.
	{Class: MessageDigest, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: MessageDigest},
	{Class: MessageDigest, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: MessageDigest},
	{Class: MessageDigest, Name: "update", Params: []string{"byte[]"}},
	{Class: MessageDigest, Name: "digest", Params: []string{}, Ret: "byte[]"},
	{Class: MessageDigest, Name: "digest", Params: []string{"byte[]"}, Ret: "byte[]"},
	{Class: MessageDigest, Name: "reset", Params: []string{}},

	// SecretKeySpec.
	{Class: SecretKeySpec, Name: "<init>", Params: []string{"byte[]", "String"}},
	{Class: SecretKeySpec, Name: "<init>", Params: []string{"byte[]", "int", "int", "String"}},

	// SecureRandom.
	{Class: SecureRandom, Name: "<init>", Params: []string{}},
	{Class: SecureRandom, Name: "<init>", Params: []string{"byte[]"}},
	{Class: SecureRandom, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: SecureRandom},
	{Class: SecureRandom, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: SecureRandom},
	{Class: SecureRandom, Name: "getInstanceStrong", Params: []string{}, Static: true, Ret: SecureRandom},
	{Class: SecureRandom, Name: "setSeed", Params: []string{"byte[]"}},
	{Class: SecureRandom, Name: "setSeed", Params: []string{"long"}},
	{Class: SecureRandom, Name: "nextBytes", Params: []string{"byte[]"}},
	{Class: SecureRandom, Name: "generateSeed", Params: []string{"int"}, Ret: "byte[]"},

	// PBEKeySpec. <init>(char[] password, byte[] salt, int iterations, int keyLen)
	{Class: PBEKeySpec, Name: "<init>", Params: []string{"char[]"}},
	{Class: PBEKeySpec, Name: "<init>", Params: []string{"char[]", "byte[]", "int"}},
	{Class: PBEKeySpec, Name: "<init>", Params: []string{"char[]", "byte[]", "int", "int"}},

	// Mac (needed by composite rule R13).
	{Class: Mac, Name: "getInstance", Params: []string{"String"}, Static: true, Ret: Mac},
	{Class: Mac, Name: "getInstance", Params: []string{"String", "String"}, Static: true, Ret: Mac},
	{Class: Mac, Name: "init", Params: []string{"Key"}},
	{Class: Mac, Name: "doFinal", Params: []string{"byte[]"}, Ret: "byte[]"},
}

// LookupMethod resolves a call on class by name and arity. It returns the
// modeled signature and true on a match. Overloads are disambiguated by
// arity only, which is sufficient for the modeled API surface.
func LookupMethod(class, name string, arity int) (MethodSig, bool) {
	for _, m := range apiMethods {
		if m.Class == class && m.Name == name && len(m.Params) == arity {
			return m, true
		}
	}
	return MethodSig{}, false
}

// MethodsOf returns all modeled methods of a class (the paper's Methods_t
// restricted to the declaring class; argument-accepting methods of other
// classes are discovered through the DAG expansion instead).
func MethodsOf(class string) []MethodSig {
	var out []MethodSig
	for _, m := range apiMethods {
		if m.Class == class {
			out = append(out, m)
		}
	}
	return out
}

// IsAPIClass reports whether the simple class name belongs to the modeled
// API (target classes, Mac, and the extended non-target surface).
func IsAPIClass(name string) bool {
	return IsTarget(name) || name == Mac || extendedClasses[name]
}

// knownIntConstants maps qualified API constant field accesses to their
// symbolic names. The abstraction keeps these symbolic (Cipher.ENCRYPT_MODE
// is more meaningful than its numeric value 1).
var knownIntConstants = map[string]string{
	"Cipher.ENCRYPT_MODE":            "ENCRYPT_MODE",
	"Cipher.DECRYPT_MODE":            "DECRYPT_MODE",
	"Cipher.WRAP_MODE":               "WRAP_MODE",
	"Cipher.UNWRAP_MODE":             "UNWRAP_MODE",
	"Cipher.PUBLIC_KEY":              "PUBLIC_KEY",
	"Cipher.PRIVATE_KEY":             "PRIVATE_KEY",
	"Cipher.SECRET_KEY":              "SECRET_KEY",
	"Build.VERSION.SDK_INT":          "SDK_INT",
	"Build.VERSION_CODES.JELLY_BEAN": "16",
}

// LookupConstant resolves a qualified field access like
// "Cipher.ENCRYPT_MODE" to its symbolic abstract value.
func LookupConstant(qualified string) (string, bool) {
	v, ok := knownIntConstants[qualified]
	return v, ok
}

// ---------------------------------------------------------------------------
// Transformation strings and algorithm knowledge
// ---------------------------------------------------------------------------

// Transformation is a parsed cipher transformation string
// "ALG/MODE/PADDING". Mode and Padding are empty when the string names only
// the algorithm, in which case Java defaults apply (ECB/PKCS5Padding for
// block ciphers — the root cause behind rule R7).
type Transformation struct {
	Algorithm string
	Mode      string
	Padding   string
}

// ParseTransformation splits a Cipher.getInstance transformation string.
func ParseTransformation(s string) Transformation {
	var t Transformation
	t.Algorithm, s, _ = strings.Cut(s, "/")
	t.Mode, t.Padding, _ = strings.Cut(s, "/")
	return t
}

// IsECB reports whether the transformation runs a block cipher in ECB
// mode: its mode is ECB, or it names no mode and a block cipher, which the
// JCA then runs in ECB. Algorithm and mode compare in canonical form.
func (t Transformation) IsECB() bool {
	if !MatchCanon(t.Mode, "", false) {
		return MatchCanon(t.Mode, "ECB", false)
	}
	for _, block := range [...]string{"AES", "DES", "DESEDE", "BLOWFISH", "RC2"} {
		if MatchCanon(t.Algorithm, block, false) {
			return true
		}
	}
	return false
}

// Canon is the form every string test of the rule language compares in:
// upper-cased, dashes dropped and surrounding white space trimmed. The JCA
// looks algorithm names up case-insensitively, and the paper writes the
// JCA's "SHA1PRNG" as SHA-1PRNG, so " sha-1" and SHA1 are one name.
func Canon(s string) string {
	return strings.TrimSpace(strings.ToUpper(strings.ReplaceAll(s, "-", "")))
}

// MatchCanon reports whether Canon(s) equals canon, or with prefix starts
// with it; canon is already in canonical form. It maps rune by rune as
// strings.ToUpper does, without building the copy.
func MatchCanon(s, canon string, prefix bool) bool {
	if s != "" && (mayPad(s[0]) || mayPad(s[len(s)-1])) {
		s = strings.TrimFunc(s, isPad)
	}
	var buf [utf8.UTFMax]byte
	for i := 0; i < len(s); {
		if s[i] == '-' {
			i++
			continue
		}
		if prefix && canon == "" {
			return true
		}
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if canon == "" || canon[0] != c {
				return false
			}
			i, canon = i+1, canon[1:]
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		n := utf8.EncodeRune(buf[:], unicode.ToUpper(r))
		if len(canon) < n || string(buf[:n]) != canon[:n] {
			return false
		}
		i, canon = i+w, canon[n:]
	}
	return canon == ""
}

// isPad reports whether r is trimmed from the ends of a string before it
// is compared: white space, and dashes, which Canon drops anyway.
func isPad(r rune) bool { return r == '-' || unicode.IsSpace(r) }

// mayPad reports whether c can be a byte of a pad rune: a dash, ASCII
// white space, or a byte of a multi-byte rune.
func mayPad(c byte) bool { return c == '-' || c == ' ' || '\t' <= c && c <= '\r' || c >= utf8.RuneSelf }

// String renders the transformation back to source form.
func (t Transformation) String() string {
	s := t.Algorithm
	if t.Mode != "" {
		s += "/" + t.Mode
		if t.Padding != "" {
			s += "/" + t.Padding
		}
	}
	return s
}
