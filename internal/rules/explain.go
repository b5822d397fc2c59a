package rules

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
)

// Explain renders a human-readable account of one violation: for each
// witnessing object, its allocation site and the abstract usage events that
// the rule matched against, in the notation of the paper's examples. Its
// output is part of the stable -v CLI surface; the remediation notes of
// Explanation are rendered by the witness (-why) path instead.
func Explain(v Violation, res *analysis.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", v.Rule.ID, v.Rule.Description)
	fmt.Fprintf(&sb, "  rule: %s\n", v.Rule.Formula)
	for _, o := range v.Objs {
		fmt.Fprintf(&sb, "  object %s (line %d):\n", o.SiteLabel(), o.Site.Line)
		for _, ev := range res.Uses[o] {
			fmt.Fprintf(&sb, "    %s\n", FormatEvent(ev))
		}
	}
	return sb.String()
}

// explanations holds one remediation note per Figure 9 rule: what the
// weakness is and what to do instead. Keep every ID from All() covered —
// TestExplanationCoverage walks both registries, CryptoLint() included.
var explanations = map[string]string{
	"R1": "SHA-1 collisions are practical (SHAttered, 2017); an attacker can forge " +
		"two inputs with the same digest. Use MessageDigest.getInstance(\"SHA-256\") or stronger.",
	"R2": "Few PBE iterations make offline password guessing cheap. Pass an iteration " +
		"count of at least 1000 (OWASP recommends far more) to PBEKeySpec.",
	"R3": "Relying on the platform-default PRNG binds you to whatever the provider ships, " +
		"which has been weak on some platforms. Request SecureRandom.getInstance(\"SHA1PRNG\") explicitly.",
	"R4": "getInstanceStrong may block on /dev/random and stall servers under entropy " +
		"starvation; the default SecureRandom constructor is already cryptographically strong.",
	"R5": "The default JCA provider historically enforced export-grade key-size limits. " +
		"Select the BouncyCastle provider: Cipher.getInstance(transformation, \"BC\").",
	"R6": "Android SDK 16-18 seeded the PRNG from too little entropy (the 2013 Bitcoin " +
		"wallet incident). Apply the Android PRNG fix before creating SecureRandom, or raise minSdkVersion.",
	"R7": "ECB encrypts equal plaintext blocks to equal ciphertext blocks, leaking " +
		"structure. Use an authenticated mode such as AES/GCM/NoPadding.",
	"R8": "A 56-bit DES key falls to brute force in hours. Use AES (128-bit or larger keys).",
	"R9": "A fixed IV makes CBC deterministic: equal prefixes produce equal ciphertexts. " +
		"Generate a fresh random IV per encryption with SecureRandom.",
	"R10": "A key compiled into the binary is recoverable by anyone who can read the " +
		"artifact. Derive or load keys at runtime (KeyGenerator, a keystore, or PBE).",
	"R11": "A constant salt lets one rainbow table cover every user. Generate a random " +
		"salt per password and store it alongside the hash.",
	"R12": "Seeding SecureRandom with a constant makes its output reproducible. Use the " +
		"self-seeding constructor; call setSeed only to add entropy, never with literals.",
	"R13": "CBC ciphertexts are malleable; without a MAC an attacker can flip plaintext " +
		"bits undetected. Add Mac.getInstance(\"HmacSHA256\") over the ciphertext (encrypt-then-MAC).",
}

// relabels maps each CryptoLint rule to the Figure 9 rule it re-labels.
var relabels = map[string]string{"CL1": "R7", "CL2": "R9", "CL3": "R10", "CL4": "R2", "CL5": "R11"}

// Explanation returns the remediation note for a rule ID ("" when the rule
// is unknown, e.g. pack rules). A CryptoLint rule explains as the Figure 9
// rule it re-labels.
func Explanation(id string) string {
	if r, ok := relabels[id]; ok {
		id = r
	}
	return explanations[id]
}

// FormatEvent renders one abstract usage event, e.g.
// `Cipher.getInstance("AES", "BC")`.
func FormatEvent(ev analysis.Event) string {
	parts := make([]string, len(ev.Args))
	for i, a := range ev.Args {
		parts[i] = a.Label()
	}
	return fmt.Sprintf("%s.%s(%s)", ev.Sig.Class, ev.Sig.Name, strings.Join(parts, ", "))
}
