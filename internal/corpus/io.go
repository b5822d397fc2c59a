package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Save writes a corpus to a directory tree:
//
//	dir/<project>/info.txt             project metadata (key=value)
//	dir/<project>/snapshot/<path>      final file snapshots
//	dir/<project>/commits/NNNN/        one directory per commit with
//	    meta.txt  old.java  new.java   metadata and the two versions
func Save(c *Corpus, dir string) error {
	for _, p := range c.Projects {
		pdir := filepath.Join(dir, p.Name)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return err
		}
		info := fmt.Sprintf("training=%t\nandroid=%t\nminsdk=%d\nlprng=%t\n",
			p.Training, p.Info.Android, p.Info.MinSDKVersion, p.Info.HasLPRNG)
		if err := os.WriteFile(filepath.Join(pdir, "info.txt"), []byte(info), 0o644); err != nil {
			return err
		}
		for path, content := range p.Files {
			full := filepath.Join(pdir, "snapshot", filepath.FromSlash(path))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
				return err
			}
		}
		for i, cm := range p.Commits {
			cdir := filepath.Join(pdir, "commits", fmt.Sprintf("%04d", i))
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				return err
			}
			meta := fmt.Sprintf("id=%s\nfile=%s\nkind=%s\nmessage=%s\n",
				cm.ID, cm.File, cm.Kind, cm.Message)
			files := map[string]string{
				"meta.txt": meta, "old.java": cm.Old, "new.java": cm.New,
			}
			for name, content := range files {
				if err := os.WriteFile(filepath.Join(cdir, name), []byte(content), 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LoadOption configures Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	strict  bool
	ledger  *resilience.Ledger
	metrics *obs.Registry
}

// WithLedger records the projects Load skipped (malformed directories,
// unreadable metadata, panics during loading) into l.
func WithLedger(l *resilience.Ledger) LoadOption {
	return func(c *loadConfig) { c.ledger = l }
}

// Strict makes Load return the first per-project error instead of skipping
// the project.
func Strict() LoadOption {
	return func(c *loadConfig) { c.strict = true }
}

// WithMetrics counts loaded projects, commits, files, and bytes into reg.
func WithMetrics(reg *obs.Registry) LoadOption {
	return func(c *loadConfig) { c.metrics = reg }
}

// Load reads a corpus previously written by Save. Each project directory is
// loaded in isolation: a malformed project is skipped and recorded in the
// WithLedger ledger (if any) rather than failing the whole corpus, unless
// the Strict option is set. Only a top-level read failure of dir itself is
// a corpus-wide error.
func Load(dir string, opts ...LoadOption) (*Corpus, error) {
	var cfg loadConfig
	for _, o := range opts {
		o(&cfg)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Corpus{}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		task := "project " + name
		var p *Project
		err := resilience.Guard(task, func() error {
			var err error
			p, err = loadProject(filepath.Join(dir, name), name)
			return err
		})
		if err != nil {
			if cfg.strict {
				return nil, err
			}
			cfg.ledger.Record(resilience.NewEntry(task, resilience.PhaseLoad, err))
			continue
		}
		c.Projects = append(c.Projects, p)
		if reg := cfg.metrics; reg != nil {
			reg.Counter("corpus.projects_loaded").Inc()
			reg.Counter("corpus.commits_loaded").Add(int64(len(p.Commits)))
			reg.Counter("corpus.files_loaded").Add(int64(len(p.Files)))
			var bytes int64
			for _, content := range p.Files {
				bytes += int64(len(content))
			}
			for _, cm := range p.Commits {
				bytes += int64(len(cm.Old) + len(cm.New))
			}
			reg.Counter("corpus.bytes_loaded").Add(bytes)
		}
	}
	return c, nil
}

// LoadStrict is Load with the Strict option: the pre-resilience behavior
// where the first malformed project aborts the load.
func LoadStrict(dir string) (*Corpus, error) {
	return Load(dir, Strict())
}

func loadProject(pdir, name string) (*Project, error) {
	p := &Project{Name: name, Files: map[string]string{}}
	info, err := os.ReadFile(filepath.Join(pdir, "info.txt"))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(info), "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok {
			continue
		}
		switch k {
		case "training":
			p.Training = v == "true"
		case "android":
			p.Info.Android = v == "true"
		case "minsdk":
			p.Info.MinSDKVersion, _ = strconv.Atoi(v)
		case "lprng":
			p.Info.HasLPRNG = v == "true"
		}
	}
	snapDir := filepath.Join(pdir, "snapshot")
	err = filepath.WalkDir(snapDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(snapDir, path)
		if err != nil {
			return err
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p.Files[filepath.ToSlash(rel)] = string(content)
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	commitsDir := filepath.Join(pdir, "commits")
	entries, err := os.ReadDir(commitsDir)
	if os.IsNotExist(err) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		cdir := filepath.Join(commitsDir, d)
		cm := Commit{}
		meta, err := os.ReadFile(filepath.Join(cdir, "meta.txt"))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(meta), "\n") {
			k, v, ok := strings.Cut(line, "=")
			if !ok {
				continue
			}
			switch k {
			case "id":
				cm.ID = v
			case "file":
				cm.File = v
			case "kind":
				cm.Kind = kindFromString(v)
			case "message":
				cm.Message = v
			}
		}
		if old, err := os.ReadFile(filepath.Join(cdir, "old.java")); err == nil {
			cm.Old = string(old)
		}
		if new, err := os.ReadFile(filepath.Join(cdir, "new.java")); err == nil {
			cm.New = string(new)
		}
		p.Commits = append(p.Commits, cm)
	}
	return p, nil
}

func kindFromString(s string) CommitKind {
	for _, k := range []CommitKind{KindRefactor, KindUnrelated, KindAdd,
		KindRemove, KindFix, KindBug} {
		if k.String() == s {
			return k
		}
	}
	return KindUnrelated
}
