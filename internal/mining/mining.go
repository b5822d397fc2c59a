// Package mining implements Step 1 of the pipeline (paper §2, §6.1):
// walking repository histories, selecting the commits that touch files
// using a target API class, and materializing each as an old/new program
// pair ready for analysis.
package mining

import (
	"strings"

	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/obs"
)

// CodeChange is one mined code change: the two versions of a file plus
// provenance metadata.
type CodeChange struct {
	Meta change.Meta
	Old  string
	New  string
	// Kind is the generator's label when the change came from the synthetic
	// corpus (evaluation bookkeeping only).
	Kind corpus.CommitKind
}

// UsesClass reports whether the source text plausibly uses the given API
// class (a fast pre-filter before parsing, like the paper's fetch of
// "patches for classes that use the target API classes").
func UsesClass(src, class string) bool {
	idx := 0
	for {
		i := strings.Index(src[idx:], class)
		if i < 0 {
			return false
		}
		i += idx
		// Require a non-identifier boundary on both sides to avoid matching
		// identifiers that merely contain the class name.
		if (i == 0 || !identByte(src[i-1])) &&
			(i+len(class) >= len(src) || !identByte(src[i+len(class)])) {
			return true
		}
		idx = i + 1
	}
}

func identByte(b byte) bool {
	return b == '_' || b == '$' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// UsesAnyTarget reports whether the source uses at least one target class.
func UsesAnyTarget(src string) bool {
	for _, c := range cryptoapi.TargetClasses {
		if UsesClass(src, c) {
			return true
		}
	}
	return false
}

// Options filters the mined projects.
type Options struct {
	// MinCommits skips projects with shorter histories (paper §6.1 uses 30
	// to exclude toy projects).
	MinCommits int
	// KeepForks disables the common-prefix de-duplication of forked
	// repositories (paper §6.1: forks are excluded so the same fix is not
	// counted once per fork).
	KeepForks bool
	// Metrics, when non-nil, receives mining telemetry (projects and
	// commits scanned, changes mined, forks deduplicated).
	Metrics *obs.Registry
}

// historyFingerprint identifies a repository by the content of its first
// commit; a fork shares it with its upstream regardless of where the fork
// point lies (identifiers inside generated/mined code make accidental
// collisions between unrelated repositories vanishingly unlikely).
func historyFingerprint(p *corpus.Project) string {
	cm := p.Commits[0]
	return cm.File + "\x00" + cm.Old + "\x00" + cm.New
}

// dedupForks keeps, per history fingerprint, only the project with the
// longest history (the upstream; forks carry a prefix).
func dedupForks(projects []*corpus.Project) []*corpus.Project {
	best := map[string]*corpus.Project{}
	order := []string{}
	for _, p := range projects {
		if len(p.Commits) == 0 {
			continue
		}
		fp := historyFingerprint(p)
		cur, seen := best[fp]
		if !seen {
			best[fp] = p
			order = append(order, fp)
			continue
		}
		if len(p.Commits) > len(cur.Commits) {
			best[fp] = p
		}
	}
	out := make([]*corpus.Project, 0, len(order))
	for _, fp := range order {
		out = append(out, best[fp])
	}
	return out
}

// Collect walks the training projects of a corpus and returns all code
// changes whose old or new version uses a target API class. Forked
// repositories (common history prefix) are de-duplicated unless KeepForks
// is set.
func Collect(c *corpus.Corpus, opts Options) []CodeChange {
	reg := opts.Metrics
	projects := c.TrainingProjects()
	before := len(projects)
	if !opts.KeepForks {
		projects = dedupForks(projects)
	}
	reg.Counter("mining.projects_scanned").Add(int64(len(projects)))
	reg.Counter("mining.forks_deduped").Add(int64(before - len(projects)))
	commits := 0
	for _, p := range projects {
		if len(p.Commits) >= opts.MinCommits {
			commits += len(p.Commits)
		}
	}
	out := make([]CodeChange, 0, commits) // every kept commit at most
	for _, p := range projects {
		if len(p.Commits) < opts.MinCommits {
			reg.Counter("mining.projects_skipped_min_commits").Inc()
			continue
		}
		reg.Counter("mining.commits_scanned").Add(int64(len(p.Commits)))
		for _, cm := range p.Commits {
			if !UsesAnyTarget(cm.Old) && !UsesAnyTarget(cm.New) {
				continue
			}
			out = append(out, CodeChange{
				Meta: change.Meta{
					Project: p.Name,
					Commit:  cm.ID,
					File:    cm.File,
					Message: cm.Message,
				},
				Old:  cm.Old,
				New:  cm.New,
				Kind: cm.Kind,
			})
		}
	}
	reg.Counter("mining.changes_mined").Add(int64(len(out)))
	return out
}

// CollectForClass narrows Collect to changes touching one target class.
func CollectForClass(c *corpus.Corpus, class string, opts Options) []CodeChange {
	var out []CodeChange
	for _, cc := range Collect(c, opts) {
		if UsesClass(cc.Old, class) || UsesClass(cc.New, class) {
			out = append(out, cc)
		}
	}
	return out
}
