package witness

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rules"
)

// explainSeeds covers the shapes the witness layer must digest without
// panicking: clean violations, provenance through helpers and fields,
// malformed and truncated sources, and adversarial flows (deep chains,
// self-referential helpers) that stress the depth and fan-in caps.
var explainSeeds = []string{
	`class A { void m() throws Exception { Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding"); } }`,
	`class B {
		static final byte[] IV = {1, 2, 3, 4};
		void m() { IvParameterSpec s = new IvParameterSpec(IV); }
	}`,
	`class C {
		byte[] key() { return "secret".getBytes(); }
		void m() { SecretKeySpec k = new SecretKeySpec(key(), "AES"); }
	}`,
	`class D {
		void m(char[] pw) {
			byte[] salt = {1};
			PBEKeySpec s = new PBEKeySpec(pw, salt, 5, 128);
		}
	}`,
	`class E { void m() { SecureRandom r = new SecureRandom(); r.setSeed(42); } }`,
	// Deep derivation chain: stresses the provenance depth cap.
	`class F {
		void m() throws Exception {
			String a = "D";
			String b = a + "E" + a + "E" + a + "E" + a + "E" + a + "E" + a + "E" + a + "E" + a;
			String c = b.substring(0, 1) + "ES";
			Cipher x = Cipher.getInstance(c);
		}
	}`,
	// Mutual recursion through helpers: stresses inlining guards.
	`class G {
		String p() { return q(); }
		String q() { return p(); }
		void m() throws Exception { Cipher c = Cipher.getInstance(p()); }
	}`,
	// Malformed / truncated inputs.
	`class H { void m( { Cipher.getInstance("DES`,
	`class`,
	``,
	"\x00\x01\x02 cipher",
	`class I { static final String X = "AES"; void m() throws Exception { Cipher.getInstance(X); } }`,
}

// FuzzExplain drives arbitrary Java snippets through parse → analyze (with
// provenance) → check → witness reconstruction → render/JSON, asserting the
// whole explain pipeline never panics and every produced trace keeps the
// sink-terminated contract.
func FuzzExplain(f *testing.F) {
	for _, s := range explainSeeds {
		f.Add(s)
	}
	ruleSet := append(rules.All(), rules.CryptoLint()...)
	ctx := rules.Context{Android: true, MinSDKVersion: 17}
	f.Fuzz(func(t *testing.T, src string) {
		prog := analysis.ParseProgram(map[string]string{"F.java": src})
		res := analysis.Analyze(prog, analysis.Options{Provenance: true})
		vs := rules.CheckPoolCtx(context.Background(), res, ctx, ruleSet, nil)
		traces := Collect(vs, res, ctx)
		for _, tr := range traces {
			if len(tr.Steps) == 0 {
				t.Fatalf("empty trace for rule %s", tr.Rule)
			}
			if tr.Sink().Kind != "sink" {
				t.Fatalf("trace for rule %s does not end at a sink: %+v", tr.Rule, tr.Steps)
			}
			if len(tr.Steps) > MaxRenderSteps+1 {
				t.Fatalf("trace for rule %s exceeds the render cap: %d steps", tr.Rule, len(tr.Steps))
			}
		}
		_ = Render(traces)
		var back []Trace
		if err := json.Unmarshal([]byte(JSON(traces)), &back); err != nil {
			t.Fatalf("JSON does not round-trip: %v", err)
		}
	})
}
