package cryptoapi

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
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
		ecb       bool
	}{
		{"AES", "AES", "", "", true},
		{"AES/CBC/PKCS5Padding", "AES", "CBC", "PKCS5Padding", false},
		{"AES/GCM/NoPadding", "AES", "GCM", "NoPadding", false},
		{"DES", "DES", "", "", true},
		{"RSA", "RSA", "", "", false},
		{"RSA/ECB/PKCS1Padding", "RSA", "ECB", "PKCS1Padding", true},
		{"Blowfish", "Blowfish", "", "", true},
		// Algorithm and mode compare in canonical form.
		{"aes/ecb/PKCS5Padding", "aes", "ecb", "PKCS5Padding", true},
		{" D-ES ", " D-ES ", "", "", true},
		{"AES/ /NoPadding", "AES", " ", "NoPadding", true},
		{"AES/-E-CB-/NoPadding", "AES", "-E-CB-", "NoPadding", true},
		{"aes/cbc/PKCS5Padding", "aes", "cbc", "PKCS5Padding", false},
		{"AESX", "AESX", "", "", false},
	}
	for _, c := range cases {
		tr := ParseTransformation(c.in)
		if tr.Algorithm != c.alg || tr.Mode != c.mode || tr.Padding != c.pad {
			t.Errorf("%s: parsed %+v", c.in, tr)
		}
		if got := tr.IsECB(); got != c.ecb {
			t.Errorf("%q: IsECB = %t, want %t", c.in, got, c.ecb)
		}
		if tr.String() != c.in {
			t.Errorf("%s: round trip = %q", c.in, tr.String())
		}
	}
}

// TestMatchCanon checks MatchCanon against the form it avoids building: on
// generated pairs of ASCII and non-ASCII strings with dashes and white
// space, MatchCanon(s, Canon(t), prefix) agrees with comparing Canon(s) to
// Canon(t). Half the pairs derive t from s by changing case, dashes and
// padding, so both answers occur often.
func TestMatchCanon(t *testing.T) {
	pieces := []string{"a", "A", "s", "S", "1", "/", "-", "--", " ", "\t", "\u00a0", "\u0085",
		"ſ", "ß", "ǆ", "ı", "é", "É", "\xff", "\xe2\x82"}
	rng := rand.New(rand.NewSource(1))
	gen := func() string {
		var b strings.Builder
		for n := rng.Intn(7); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	respell := func(s string) string {
		var b strings.Builder
		b.WriteString([]string{"", " ", "-", "\t-"}[rng.Intn(4)])
		for _, r := range s {
			switch rng.Intn(4) {
			case 0:
				r = unicode.ToLower(r)
			case 1:
				r = unicode.ToUpper(r)
			case 2:
				b.WriteByte('-')
			}
			b.WriteRune(r)
		}
		b.WriteString([]string{"", " ", "-", " -\n"}[rng.Intn(4)])
		return b.String()
	}
	outcomes := map[bool]int{}
	for i := 0; i < 50000; i++ {
		s, target := gen(), gen()
		if i%2 == 0 {
			target = respell(s)
			if i%4 == 0 && len(target) > 0 {
				target = target[:rng.Intn(len(target))]
			}
		}
		cs, ct := Canon(s), Canon(target)
		for _, prefix := range []bool{false, true} {
			want := cs == ct || (prefix && strings.HasPrefix(cs, ct))
			if got := MatchCanon(s, ct, prefix); got != want {
				t.Fatalf("MatchCanon(%q, %q, %t) = %t, want %t", s, ct, prefix, got, want)
			}
			outcomes[want]++
		}
	}
	if outcomes[true] < 10000 || outcomes[false] < 10000 {
		t.Errorf("outcomes %v: want both answers often", outcomes)
	}
}
