package rules

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cryptoapi"
)

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	return analysis.AnalyzeSource(src, analysis.Options{})
}

func wrap(body string) string {
	return "class T {\n    void run(Key key, char[] pw) throws Exception {\n" +
		body + "\n    }\n}\n"
}

// matchCase runs one rule against one snippet.
func matchCase(t *testing.T, r *Rule, body string, ctx Context, want bool) {
	t.Helper()
	res := analyze(t, wrap(body))
	got, _ := r.Matches(res, ctx)
	if got != want {
		t.Errorf("%s on %q: match = %v, want %v", r.ID, body, got, want)
	}
}

func TestR1WeakDigest(t *testing.T) {
	matchCase(t, R1, `MessageDigest md = MessageDigest.getInstance("SHA-1");`, Context{}, true)
	matchCase(t, R1, `MessageDigest md = MessageDigest.getInstance("MD5");`, Context{}, true)
	matchCase(t, R1, `MessageDigest md = MessageDigest.getInstance("SHA-256");`, Context{}, false)
	matchCase(t, R1, `MessageDigest md = MessageDigest.getInstance("sha1");`, Context{}, true)
}

func TestR2PBEIterations(t *testing.T) {
	matchCase(t, R2, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 100, 256);`, Context{}, true)
	matchCase(t, R2, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 10000, 256);`, Context{}, false)
	matchCase(t, R2, `PBEKeySpec s = new PBEKeySpec(pw, salt(), 999);`, Context{}, true)
	// Unknown iteration count: not provably below the bound.
	matchCase(t, R2, `PBEKeySpec s = new PBEKeySpec(pw, salt(), iter(), 256);`, Context{}, false)
}

func TestR3SHA1PRNG(t *testing.T) {
	matchCase(t, R3, `SecureRandom r = new SecureRandom();`, Context{}, true)
	matchCase(t, R3, `SecureRandom r = SecureRandom.getInstance("SHA1PRNG");`, Context{}, false)
	matchCase(t, R3, `SecureRandom r = SecureRandom.getInstance("NativePRNG");`, Context{}, true)
}

func TestR4InstanceStrong(t *testing.T) {
	matchCase(t, R4, `SecureRandom r = SecureRandom.getInstanceStrong();`, Context{}, true)
	matchCase(t, R4, `SecureRandom r = new SecureRandom();`, Context{}, false)
}

func TestR5BouncyCastle(t *testing.T) {
	matchCase(t, R5, `Cipher c = Cipher.getInstance("AES/GCM/NoPadding");`, Context{}, true)
	matchCase(t, R5, `Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC");`, Context{}, false)
	matchCase(t, R5, `Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "SunJCE");`, Context{}, true)
}

func TestR6AndroidPRNG(t *testing.T) {
	body := `SecureRandom r = new SecureRandom();`
	matchCase(t, R6, body, Context{Android: true, MinSDKVersion: 16}, true)
	matchCase(t, R6, body, Context{Android: true, MinSDKVersion: 16, HasLPRNG: true}, false)
	matchCase(t, R6, body, Context{Android: true, MinSDKVersion: 21}, true)
	matchCase(t, R6, body, Context{Android: true, MinSDKVersion: 15}, false)
	matchCase(t, R6, body, Context{}, false) // not Android at all
}

func TestR7ECB(t *testing.T) {
	matchCase(t, R7, `Cipher c = Cipher.getInstance("AES");`, Context{}, true)
	matchCase(t, R7, `Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding");`, Context{}, true)
	matchCase(t, R7, `Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`, Context{}, false)
	matchCase(t, R7, `Cipher c = Cipher.getInstance("AES/GCM/NoPadding");`, Context{}, false)
	matchCase(t, R7, `Cipher c = Cipher.getInstance("RSA");`, Context{}, false)
	// The JCA reads the mode in any case, as it reads algorithm names.
	for _, r := range []*Rule{R7, CL1} {
		matchCase(t, r, `Cipher c = Cipher.getInstance("aes/ecb/PKCS5Padding", "BC");`, Context{}, true)
		matchCase(t, r, `Cipher c = Cipher.getInstance("aes/cbc/PKCS5Padding", "BC");`, Context{}, false)
	}
}

func TestR8DES(t *testing.T) {
	matchCase(t, R8, `Cipher c = Cipher.getInstance("DES");`, Context{}, true)
	matchCase(t, R8, `Cipher c = Cipher.getInstance("DES/CBC/PKCS5Padding");`, Context{}, true)
	matchCase(t, R8, `Cipher c = Cipher.getInstance("DESede");`, Context{}, false)
	matchCase(t, R8, `Cipher c = Cipher.getInstance("AES");`, Context{}, false)
}

func TestR9StaticIV(t *testing.T) {
	matchCase(t, R9, `IvParameterSpec iv = new IvParameterSpec(new byte[]{1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16});`, Context{}, true)
	matchCase(t, R9, `byte[] b = new byte[16]; IvParameterSpec iv = new IvParameterSpec(b);`, Context{}, true)
	matchCase(t, R9, `byte[] b = new byte[16]; new SecureRandom().nextBytes(b); IvParameterSpec iv = new IvParameterSpec(b);`, Context{}, false)
	matchCase(t, R9, `IvParameterSpec iv = new IvParameterSpec(random());`, Context{}, false)
}

func TestR10StaticKey(t *testing.T) {
	matchCase(t, R10, `SecretKeySpec k = new SecretKeySpec(new byte[]{1,2,3,4}, "AES");`, Context{}, true)
	matchCase(t, R10, `SecretKeySpec k = new SecretKeySpec(derive(), "AES");`, Context{}, false)
}

func TestR11StaticSalt(t *testing.T) {
	matchCase(t, R11, `PBEKeySpec s = new PBEKeySpec(pw, new byte[]{9,9,9,9}, 10000, 256);`, Context{}, true)
	matchCase(t, R11, `PBEKeySpec s = new PBEKeySpec(pw, randomSalt(), 10000, 256);`, Context{}, false)
}

func TestR12StaticSeed(t *testing.T) {
	matchCase(t, R12, `SecureRandom r = new SecureRandom(); r.setSeed(new byte[]{1,2,3});`, Context{}, true)
	matchCase(t, R12, `SecureRandom r = new SecureRandom(); r.setSeed(42);`, Context{}, true)
	matchCase(t, R12, `SecureRandom r = new SecureRandom(); r.setSeed(r.generateSeed(16));`, Context{}, false)
	matchCase(t, R12, `SecureRandom r = new SecureRandom();`, Context{}, false)
}

func TestR13Composite(t *testing.T) {
	vulnerable := `
        Cipher data = Cipher.getInstance("AES/CBC/PKCS5Padding");
        Cipher keyex = Cipher.getInstance("RSA/ECB/OAEPPadding");`
	fixed := vulnerable + `
        Mac mac = Mac.getInstance("HmacSHA256");`
	matchCase(t, R13, vulnerable, Context{}, true)
	matchCase(t, R13, fixed, Context{}, false)
	// Only one of the two cipher roles present: not a key-exchange pattern.
	matchCase(t, R13, `Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`, Context{}, false)
}

func TestApplicable(t *testing.T) {
	res := analyze(t, wrap(`MessageDigest md = MessageDigest.getInstance("SHA-256");`))
	if !R1.Applicable(res, Context{}) {
		t.Error("R1 should be applicable to any MessageDigest user")
	}
	if R7.Applicable(res, Context{}) {
		t.Error("R7 applicable without any Cipher object")
	}
	// R13 applicability needs both positive clauses to match.
	res2 := analyze(t, wrap(`Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");`))
	if R13.Applicable(res2, Context{}) {
		t.Error("R13 applicable with only one cipher role")
	}
	res3 := analyze(t, wrap(`
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        Cipher b = Cipher.getInstance("RSA");
        Mac m = Mac.getInstance("HmacSHA256");`))
	if !R13.Applicable(res3, Context{}) {
		t.Error("R13 not applicable although both cipher roles present")
	}
	if ok, _ := R13.Matches(res3, Context{}); ok {
		t.Error("R13 matches although HMAC is present")
	}
}

func TestCheckAggregates(t *testing.T) {
	res := analyze(t, wrap(`
        Cipher c = Cipher.getInstance("DES");
        MessageDigest md = MessageDigest.getInstance("MD5");`))
	vs := CheckPoolCtx(context.Background(), res, Context{}, All(), nil)
	ids := map[string]bool{}
	for _, v := range vs {
		ids[v.Rule.ID] = true
		if len(v.Objs) == 0 {
			t.Errorf("%s: no witnesses", v.Rule.ID)
		}
	}
	for _, want := range []string{"R1", "R5", "R7", "R8"} {
		if !ids[want] {
			t.Errorf("expected violation %s, got %v", want, ids)
		}
	}
	if ids["R2"] || ids["R13"] {
		t.Errorf("unexpected violations: %v", ids)
	}
}

func TestClassify(t *testing.T) {
	oldRes := analyze(t, wrap(`Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding"); c.init(Cipher.ENCRYPT_MODE, key);`))
	newRes := analyze(t, wrap(`Cipher c = Cipher.getInstance("AES/GCM/NoPadding"); c.init(Cipher.ENCRYPT_MODE, key);`))
	if got := Classify(CL1, oldRes, newRes, Context{}); got != SecurityFix {
		t.Errorf("fix classified as %v", got)
	}
	if got := Classify(CL1, newRes, oldRes, Context{}); got != BuggyChange {
		t.Errorf("bug classified as %v", got)
	}
	if got := Classify(CL1, oldRes, oldRes, Context{}); got != NonSemantic {
		t.Errorf("no-op classified as %v", got)
	}
	if SecurityFix.String() != "fix" || BuggyChange.String() != "bug" || NonSemantic.String() != "none" {
		t.Error("ChangeType renderings wrong")
	}
}

func TestByID(t *testing.T) {
	if ByID("R7") != R7 || ByID("CL3") != CL3 {
		t.Error("ByID lookup failed")
	}
	if ByID("R99") != nil {
		t.Error("unknown ID should return nil")
	}
	if len(All()) != 13 {
		t.Errorf("All() = %d rules, want 13", len(All()))
	}
	if len(CryptoLint()) != 5 {
		t.Errorf("CryptoLint() = %d rules, want 5", len(CryptoLint()))
	}
	seen := map[string]bool{}
	for _, r := range append(All(), CryptoLint()...) {
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Description == "" || r.Formula == "" {
			t.Errorf("%s missing description or formula", r.ID)
		}
	}
}

func TestSuggestFromPaperExample(t *testing.T) {
	oldRes := analyze(t, `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}`)
	newRes := analyze(t, `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            IvParameterSpec ivSpec = new IvParameterSpec(Hex.decodeHex(iv.toCharArray()));
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}`)
	changes := change.Extract(oldRes, newRes, cryptoapi.Cipher, 0, change.Meta{})
	kept, _ := change.Filter(changes)
	if len(kept) != 1 {
		t.Fatalf("changes = %d", len(kept))
	}
	rule := Suggest(kept[0])
	// The suggested rule flags the unfixed (old) code...
	if ok, _ := rule.Matches(oldRes, Context{}); !ok {
		t.Errorf("suggested rule does not match the old version\n%s", rule.Formula)
	}
	// ...and accepts the fixed (new) code.
	if ok, _ := rule.Matches(newRes, Context{}); ok {
		t.Errorf("suggested rule still matches the fixed version\n%s", rule.Formula)
	}
	if rule.ID == "" || rule.Formula == "" {
		t.Error("suggested rule missing metadata")
	}
	// Stable ID for identical changes.
	if Suggest(kept[0]).ID != rule.ID {
		t.Error("suggested rule ID not deterministic")
	}
}
