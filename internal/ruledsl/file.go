package ruledsl

import (
	"fmt"
	"strings"
)

// PackRule is one rule line of a pack: the raw fields, where they sit in
// the pack file, and the parsed formula. Syntax is nil when Err is set.
// FormulaCol is the 1-based column of the formula's first character on
// Line, letting diagnostics translate formula-relative positions into
// pack-absolute ones.
type PackRule struct {
	ID          string
	Description string
	Formula     string
	Line        int // 1-based line in the pack file
	FormulaCol  int
	Syntax      *Syntax
	Err         error // parse error, already line:col-resolved
}

// PackLineError is a structurally malformed pack line (wrong field count,
// empty id) that never reached the rule parser.
type PackLineError struct {
	Line int
	Msg  string
}

func (e PackLineError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// Pack is the tolerant parse of one rules file: every line is accounted
// for, broken ones included, so rulelint can report all defects in one
// run instead of stopping at the first.
type Pack struct {
	Name     string // file name, used in diagnostics
	Source   string
	Rules    []PackRule
	LineErrs []PackLineError
}

// ParsePack parses a rule-pack file. The format is line-oriented:
//
//	# comment
//	R1 | Use SHA-256 instead of SHA-1 | MessageDigest : getInstance(X) ∧ X=SHA-1
//
// Blank lines and lines starting with '#' are ignored. Each rule line has
// three '|'-separated fields: id, description, formula. Unlike ParseFile,
// ParsePack never fails: malformed lines land in LineErrs, formulas that do
// not parse in PackRule.Err, and duplicate ids are kept (rulelint reports
// them as collisions).
func ParsePack(name, content string) *Pack {
	p := &Pack{Name: name, Source: content}
	for i, line := range strings.Split(content, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 {
			p.LineErrs = append(p.LineErrs, PackLineError{
				Line: i + 1,
				Msg:  fmt.Sprintf("want 'id | description | formula', got %q", trimmed),
			})
			continue
		}
		id := strings.TrimSpace(parts[0])
		if id == "" {
			p.LineErrs = append(p.LineErrs, PackLineError{Line: i + 1, Msg: "empty rule id"})
			continue
		}
		formula := strings.TrimSpace(parts[2])
		// Column of the formula's first character: past both '|'s plus
		// whatever leading whitespace TrimSpace removed.
		col := len(parts[0]) + len(parts[1]) + 2 +
			(len(parts[2]) - len(strings.TrimLeft(parts[2], " \t"))) + 1
		pr := PackRule{
			ID:          id,
			Description: strings.TrimSpace(parts[1]),
			Formula:     formula,
			Line:        i + 1,
			FormulaCol:  col,
		}
		if syn, err := ParseSyntax(formula); err != nil {
			pr.Err = fmt.Errorf("rule %s: %w", id, err)
		} else {
			pr.Syntax = syn
		}
		p.Rules = append(p.Rules, pr)
	}
	return p
}

// ParseFile parses a rules file, failing on the first defect. It is the
// strict form of ParsePack: same format, but malformed lines, duplicate
// ids, and formulas that do not parse are immediate errors.
func ParseFile(content string) ([]PackRule, error) {
	p := ParsePack("", content)
	var out []PackRule
	seen := map[string]bool{}
	le := 0
	for _, pr := range p.Rules {
		// Interleave structural line errors back in line order.
		if le < len(p.LineErrs) && p.LineErrs[le].Line < pr.Line {
			return nil, p.LineErrs[le]
		}
		if seen[pr.ID] {
			return nil, fmt.Errorf("line %d: duplicate rule id %q", pr.Line, pr.ID)
		}
		seen[pr.ID] = true
		if pr.Err != nil {
			return nil, fmt.Errorf("line %d: %w", pr.Line, pr.Err)
		}
		out = append(out, pr)
	}
	if le < len(p.LineErrs) {
		return nil, p.LineErrs[le]
	}
	return out, nil
}
