package rules

import (
	_ "embed"
	"fmt"

	"repro/internal/ruledsl"
)

// BuiltinText is the built-in rule pack: the 13 elicited rules of Figure 9
// and the five CryptoLint reference rules, in the rule-pack format.
//
//go:embed builtin.rules
var BuiltinText string

// builtins compiles BuiltinText once, through the loader every rule pack
// goes through.
var builtins = func() map[string]*Rule {
	p := ruledsl.ParsePack("builtin.rules", BuiltinText)
	if len(p.LineErrs) > 0 {
		panic(fmt.Sprintf("builtin.rules: %v", p.LineErrs[0]))
	}
	out := make(map[string]*Rule, len(p.Rules))
	for _, pr := range p.Rules {
		if pr.Err != nil {
			panic(fmt.Sprintf("builtin.rules line %d: %v", pr.Line, pr.Err))
		}
		out[pr.ID] = Compile(pr.ID, pr.Description, pr.Syntax)
	}
	return out
}()

// The 13 security rules of the paper's Figure 9.
var (
	R1  = builtins["R1"]
	R2  = builtins["R2"]
	R3  = builtins["R3"]
	R4  = builtins["R4"]
	R5  = builtins["R5"]
	R6  = builtins["R6"]
	R7  = builtins["R7"]
	R8  = builtins["R8"]
	R9  = builtins["R9"]
	R10 = builtins["R10"]
	R11 = builtins["R11"]
	R12 = builtins["R12"]
	R13 = builtins["R13"]
)

// All returns the 13 elicited rules of Figure 9, in order.
func All() []*Rule {
	return []*Rule{R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13}
}

// The five CryptoLint reference rules of §6.2, re-labels of Figure 9 rules:
// CL1 = ECB, CL2 = static IV, CL3 = constant key, CL4 = low PBE iteration
// count, CL5 = static salt.
var (
	CL1 = builtins["CL1"]
	CL2 = builtins["CL2"]
	CL3 = builtins["CL3"]
	CL4 = builtins["CL4"]
	CL5 = builtins["CL5"]
)

// CryptoLint returns the CL1–CL5 reference rules, in order.
func CryptoLint() []*Rule {
	return []*Rule{CL1, CL2, CL3, CL4, CL5}
}

// ByID resolves a rule identifier (R1..R13, CL1..CL5).
func ByID(id string) *Rule {
	return builtins[id]
}
