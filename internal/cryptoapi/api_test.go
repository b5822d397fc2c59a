package cryptoapi

import (
	"strings"
	"testing"
)

func TestTargetClasses(t *testing.T) {
	if len(TargetClasses) != 6 {
		t.Fatalf("target classes = %d, want 6 (paper Figure 5)", len(TargetClasses))
	}
	want := []string{Cipher, IvParameterSpec, MessageDigest, SecretKeySpec,
		SecureRandom, PBEKeySpec}
	for i, w := range want {
		if TargetClasses[i] != w {
			t.Errorf("class %d = %s, want %s", i, TargetClasses[i], w)
		}
	}
	for _, c := range TargetClasses {
		if !IsTarget(c) {
			t.Errorf("IsTarget(%s) = false", c)
		}
		if !IsAPIClass(c) {
			t.Errorf("IsAPIClass(%s) = false", c)
		}
	}
	if IsTarget(Mac) {
		t.Error("Mac must not be a clustering target")
	}
	if !IsAPIClass(Mac) {
		t.Error("Mac must be a modeled API class (rule R13)")
	}
	if IsTarget("String") || IsAPIClass("HashMap") {
		t.Error("non-API classes misclassified")
	}
}

func TestLookupMethod(t *testing.T) {
	cases := []struct {
		class, name string
		arity       int
		found       bool
		static_     bool
		ret         string
	}{
		{Cipher, "getInstance", 1, true, true, Cipher},
		{Cipher, "getInstance", 2, true, true, Cipher},
		{Cipher, "init", 2, true, false, ""},
		{Cipher, "init", 3, true, false, ""},
		{Cipher, "doFinal", 1, true, false, "byte[]"},
		{IvParameterSpec, "<init>", 1, true, false, ""},
		{MessageDigest, "digest", 0, true, false, "byte[]"},
		{SecureRandom, "getInstanceStrong", 0, true, true, SecureRandom},
		{SecureRandom, "setSeed", 1, true, false, ""},
		{PBEKeySpec, "<init>", 4, true, false, ""},
		{Mac, "getInstance", 1, true, true, Mac},
		{Cipher, "nonsense", 1, false, false, ""},
		{Cipher, "init", 9, false, false, ""},
	}
	for _, c := range cases {
		m, ok := LookupMethod(c.class, c.name, c.arity)
		if ok != c.found {
			t.Errorf("LookupMethod(%s.%s/%d) found = %t", c.class, c.name, c.arity, ok)
			continue
		}
		if !ok {
			continue
		}
		if m.Static != c.static_ || m.Ret != c.ret {
			t.Errorf("%s: static=%t ret=%q, want static=%t ret=%q",
				m, m.Static, m.Ret, c.static_, c.ret)
		}
	}
}

func TestMethodsOf(t *testing.T) {
	ms := MethodsOf(Cipher)
	if len(ms) < 5 {
		t.Errorf("Cipher methods = %d, want several", len(ms))
	}
	for _, m := range ms {
		if m.Class != Cipher {
			t.Errorf("MethodsOf(Cipher) returned %s", m)
		}
	}
	if got := MethodsOf("Nothing"); got != nil {
		t.Errorf("MethodsOf(unknown) = %v", got)
	}
}

func TestMethodSigString(t *testing.T) {
	m, _ := LookupMethod(Cipher, "getInstance", 1)
	if got := m.String(); got != "Cipher.getInstance(String)" {
		t.Errorf("String() = %q", got)
	}
	if m.Key() != m.String() {
		t.Error("Key should equal String")
	}
}

func TestLookupConstant(t *testing.T) {
	if v, ok := LookupConstant("Cipher.ENCRYPT_MODE"); !ok || v != "ENCRYPT_MODE" {
		t.Errorf("ENCRYPT_MODE lookup = %q, %t", v, ok)
	}
	if _, ok := LookupConstant("Cipher.NOT_A_CONSTANT"); ok {
		t.Error("unknown constant resolved")
	}
}

func TestParseTransformation(t *testing.T) {
	cases := []struct {
		in        string
		alg, mode string
		pad       string
		effective string
	}{
		{"AES", "AES", "", "", "ECB"},
		{"AES/CBC/PKCS5Padding", "AES", "CBC", "PKCS5Padding", "CBC"},
		{"AES/GCM/NoPadding", "AES", "GCM", "NoPadding", "GCM"},
		{"DES", "DES", "", "", "ECB"},
		{"RSA", "RSA", "", "", ""},
		{"RSA/ECB/PKCS1Padding", "RSA", "ECB", "PKCS1Padding", "ECB"},
		{"Blowfish", "Blowfish", "", "", "ECB"},
	}
	for _, c := range cases {
		tr := ParseTransformation(c.in)
		if tr.Algorithm != c.alg || tr.Mode != c.mode || tr.Padding != c.pad {
			t.Errorf("%s: parsed %+v", c.in, tr)
		}
		if got := tr.EffectiveMode(); got != c.effective {
			t.Errorf("%s: effective mode = %q, want %q", c.in, got, c.effective)
		}
		if tr.String() != c.in {
			t.Errorf("%s: round trip = %q", c.in, tr.String())
		}
	}
}

func TestDigestKnowledge(t *testing.T) {
	for _, weak := range []string{"MD5", "SHA-1", "SHA1", "MD2"} {
		if !WeakDigests[weak] {
			t.Errorf("WeakDigests[%s] = false", weak)
		}
		if StrongDigestFor(weak) != "SHA-256" {
			t.Errorf("StrongDigestFor(%s) = %s", weak, StrongDigestFor(weak))
		}
	}
	if WeakDigests["SHA-256"] {
		t.Error("SHA-256 flagged weak")
	}
	if StrongDigestFor("SHA-512") != "SHA-512" {
		t.Error("strong digest should map to itself")
	}
}

func TestCipherKnowledge(t *testing.T) {
	if !IsWeakCipherAlgorithm("DES") || !IsWeakCipherAlgorithm("RC4") {
		t.Error("DES/RC4 not flagged weak")
	}
	if IsWeakCipherAlgorithm("AES") {
		t.Error("AES flagged weak")
	}
	for _, m := range []string{"CBC", "GCM", "CTR"} {
		if !FeedbackModes[m] {
			t.Errorf("FeedbackModes[%s] = false", m)
		}
	}
	if FeedbackModes["ECB"] {
		t.Error("ECB is not a feedback mode")
	}
}

// TestMatchUpper checks MatchUpper against the string form it avoids
// building: strings.ToUpper, with dashes dropped when asked.
func TestMatchUpper(t *testing.T) {
	inputs := []string{"", "aes", "AES/cbc", "sha-1", "SHA1", " des ", "ſha1", "ǆ", "ı", "\xff", "a\xffb", "Straße", "-", "--x-"}
	for _, s := range inputs {
		for _, target := range inputs {
			for _, dropDash := range []bool{false, true} {
				for _, prefix := range []bool{false, true} {
					form := strings.ToUpper(s)
					if dropDash {
						form = strings.ReplaceAll(form, "-", "")
					}
					tt := strings.ToUpper(target)
					want := form == tt || (prefix && strings.HasPrefix(form, tt))
					if got := MatchUpper(s, tt, dropDash, prefix); got != want {
						t.Errorf("MatchUpper(%q, %q, %t, %t) = %t, want %t", s, tt, dropDash, prefix, got, want)
					}
				}
			}
		}
	}
}
