package core

import (
	"fmt"
	"strings"

	"repro/internal/change"
	"repro/internal/textdiff"
)

// Provenance returns the analyzed commits whose extraction for the change's
// class produced exactly this usage change (the pre-dedup view). This is
// the paper's inspection step: from a clustered abstract change back to the
// concrete commits and patches behind it.
func (e *Evaluation) Provenance(c change.UsageChange) []*AnalyzedChange {
	key := c.Key()
	var out []*AnalyzedChange
	for i, row := range e.table(c.Class).rows {
		for _, uc := range row {
			if uc.Key() == key {
				out = append(out, e.Analyzed[i])
				break
			}
		}
	}
	return out
}

// RenderProvenance shows the commits behind a usage change with their
// textual patches, in the style a reviewer would read on GitHub.
func (e *Evaluation) RenderProvenance(c change.UsageChange, ctxLines int) string {
	commits := e.Provenance(c)
	var sb strings.Builder
	fmt.Fprintf(&sb, "usage change (%s):\n%s", c.Class, indentText(c.String(), "  "))
	fmt.Fprintf(&sb, "found in %d commit(s):\n", len(commits))
	for _, a := range commits {
		fmt.Fprintf(&sb, "\ncommit %s (%s)\n", a.Meta.Commit, a.Meta.Project)
		fmt.Fprintf(&sb, "message: %s\nfile: %s\n", a.Meta.Message, a.Meta.File)
		sb.WriteString(textdiff.Unified(a.OldSrc, a.NewSrc, ctxLines))
	}
	return sb.String()
}

func indentText(s, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString(prefix + line + "\n")
	}
	return sb.String()
}
