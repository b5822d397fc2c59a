package analysis

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/javaast"
	"repro/internal/javaparser"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Normalized returns the options with the analyzer defaults applied — the
// canonical form artifact fingerprints hash, so a caller that spells out
// the defaults and one that leaves them zero address the same artifacts.
func (o Options) Normalized() Options { return o.withDefaults() }

// parseArtifact is the cached outcome of parsing one source file: the unit
// plus the recovered-error count, so the parse.* telemetry of a warm run is
// identical to a cold one.
type parseArtifact struct {
	Unit *javaast.CompilationUnit
	Errs int
}

func encodeParseArtifact(pa *parseArtifact) ([]byte, error) {
	javaast.GobRegister()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pa); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeParseArtifact(b []byte) (any, error) {
	javaast.GobRegister()
	var pa parseArtifact
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&pa); err != nil {
		return nil, err
	}
	if pa.Unit == nil {
		return nil, fmt.Errorf("parse artifact holds no unit")
	}
	return &pa, nil
}

// ParseProgramStoreCtx is the one per-file parse loop. Each file parses on
// its own pool worker, with results assembled into the sorted-name slot
// order the serial parser produces — so the Program (and all telemetry,
// which is sum-based) is identical at any worker count. The abstract
// interpretation downstream stays single-goroutine (budgets are
// single-goroutine by contract); only the per-file parse fans out. When ctx
// carries a span, the parse runs under a "parse" child annotated with the
// file count, and each file gets its own "file[i]" span carrying the file
// name, ordered by index at any worker count.
//
// A non-nil store addresses each file's parse by its content alone (option
// changes never invalidate parse artifacts), concurrent parses of identical
// content share one run (per-key single-flight), and cached units are
// shared read-only — the analyzer never mutates the AST. The Program, its
// telemetry, and the span tree are identical with the store on or off; a
// nil store derives no content keys at all.
func ParseProgramStoreCtx(ctx context.Context, sources map[string]string, reg *obs.Registry, pool *parallel.Pool, st *artifact.Store) *Program {
	names := make([]string, 0, len(sources))
	for n := range sources {
		if dot := strings.LastIndexByte(n, '.'); dot >= 0 && !strings.HasSuffix(n, ".java") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	pctx, psp := trace.Start(ctx, "parse")
	psp.SetAttr("files", strconv.Itoa(len(names)))
	defer psp.End()
	p := &Program{Files: make([]File, len(names)), SourceFP: sourceFingerprint(names, sources)}
	errCounts := make([]int64, len(names))
	var bytes, parseErrs int64
	// Detach: parsing is never canceled mid-file; only the span propagates.
	pool.ForEachCtx(trace.Detach(pctx), "file", len(names), func(fctx context.Context, i int) {
		trace.FromContext(fctx).SetAttr("name", names[i])
		unit, errs := parseFile(sources[names[i]], st)
		p.Files[i] = File{Name: names[i], Unit: unit}
		errCounts[i] = int64(errs)
	})
	for i, n := range names {
		bytes += int64(len(sources[n]))
		parseErrs += errCounts[i]
	}
	if reg != nil {
		reg.Counter("parse.files").Add(int64(len(names)))
		reg.Counter("parse.bytes").Add(bytes)
		reg.Counter("parse.errors").Add(parseErrs)
	}
	return p
}

// parseFile parses one source file, through the store when st is non-nil,
// returning its unit and recovered-error count.
func parseFile(src string, st *artifact.Store) (*javaast.CompilationUnit, int) {
	if st == nil {
		res := javaparser.Parse(src)
		return res.Unit, len(res.Errors)
	}
	k := artifact.NewKey(artifact.KindParse, src)
	v, _ := st.Do(artifact.KindParse, k, func() (any, error) {
		if v, ok := st.Get(artifact.KindParse, k, decodeParseArtifact); ok {
			return v, nil
		}
		res := javaparser.Parse(src)
		pa := &parseArtifact{Unit: res.Unit, Errs: len(res.Errors)}
		st.Put(artifact.KindParse, k, pa, func() ([]byte, error) { return encodeParseArtifact(pa) })
		return pa, nil
	})
	pa := v.(*parseArtifact)
	return pa.Unit, pa.Errs
}
