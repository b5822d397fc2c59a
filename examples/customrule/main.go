// Customrule: extending CryptoChecker with textual rules.
//
// The rule notation of the paper's Figure 9 is executable in this
// reproduction: this example writes three organization-specific rules in
// that notation, compiles them with ParseRule/ParseRuleFile, and checks a
// code base against the built-in 13 rules plus the custom ones.
//
// Run with: go run ./examples/customrule
package main

import (
	"context"
	"fmt"
	"log"

	diffcode "repro"
)

const customRules = `
# Organization-specific rules, in the paper's Figure 9 notation.
ORG1 | Ban the RC4 stream cipher            | Cipher : getInstance(X) ∧ X=RC4
ORG2 | Require at least 65536 KDF rounds    | PBEKeySpec : <init>(_,_,X,_) ∧ X<65536
ORG3 | HMACs must not use SHA-1             | Mac : getInstance(X) ∧ startsWith(X,HmacSHA1)
`

const code = `
class LegacyTransport {
    void setup(Key key, char[] pw, byte[] salt) throws Exception {
        Cipher stream = Cipher.getInstance("RC4");
        stream.init(Cipher.ENCRYPT_MODE, key);

        PBEKeySpec spec = new PBEKeySpec(pw, salt, 10000, 256);

        Mac tag = Mac.getInstance("HmacSHA1");
        tag.init(key);
    }
}
`

func main() {
	custom, err := diffcode.ParseRuleFile(customRules)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d custom rules:\n", len(custom))
	for _, r := range custom {
		fmt.Printf("  %-5s %s\n        %s\n", r.ID, r.Description, r.Formula)
	}

	// One more, built inline with ASCII operators.
	inline, err := diffcode.ParseRule("ORG4", "Blowfish is legacy",
		`Cipher : getInstance(X) && X=Blowfish`)
	if err != nil {
		log.Fatal(err)
	}

	ruleSet := append(diffcode.Rules(), custom...)
	ruleSet = append(ruleSet, inline)
	checker := diffcode.NewChecker(ruleSet, diffcode.Options{})

	fmt.Println("\n=== Findings ===")
	out, err := checker.CheckRequest(context.Background(),
		map[string]string{"LegacyTransport.java": code}, diffcode.RuleContext{}, false)
	if err != nil {
		log.Fatal(err)
	}
	vs := out.Violations
	for _, v := range vs {
		fmt.Printf("%-5s %s\n", v.Rule.ID, v.Rule.Description)
		for _, o := range v.Objs {
			fmt.Printf("      at %s\n", o.SiteLabel())
		}
	}
	fmt.Printf("\n%d rules matched (built-in + custom)\n", len(vs))
}
