package core

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/mining"
)

// Sharded corpus map-reduce: the mined change list is split into contiguous
// shards, each shard is analyzed and class-filtered independently (the map
// side — shards can run in separate processes against a shared -cache-dir),
// and the per-shard class results merge into exactly the monolithic result
// (the reduce side). Equivalence rests on two properties of the pipeline:
//
//   - mining.Collect runs globally before sharding, so fork deduplication
//     (which needs the whole corpus) is unaffected;
//   - change.Filter's first three filters are per-element and its fdup is a
//     first-occurrence dedup, so deduping each contiguous shard and then
//     deduping the shard-order concatenation yields the same survivors in
//     the same order as one global pass.
//
// Clustering is global and runs over the merged survivors.

// ShardChanges splits a mined change list into n contiguous shards (some
// possibly empty when n exceeds the list length). Contiguity is what makes
// per-shard filtering composable — see the package comment above.
func ShardChanges(ccs []mining.CodeChange, n int) [][]mining.CodeChange {
	if n < 1 {
		n = 1
	}
	out := make([][]mining.CodeChange, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ccs)/n, (i+1)*len(ccs)/n
		out[i] = ccs[lo:hi]
	}
	return out
}

// MineCorpusShards mines the corpus once, then analyzes it in n contiguous
// shards, returning one analyzed slice per shard (failed changes dropped,
// as MineCorpus does). Flattening the shards reproduces MineCorpus exactly.
func (d *DiffCode) MineCorpusShards(c *corpus.Corpus, n int) [][]*AnalyzedChange {
	return d.MineCorpusShardsCtx(context.Background(), c, n)
}

// MineCorpusShardsCtx is MineCorpusShards with span propagation: the
// collection runs under one "mine" span; each shard's batch analysis gets
// its own "analyze" span via AnalyzeAllCtx.
func (d *DiffCode) MineCorpusShardsCtx(ctx context.Context, c *corpus.Corpus, n int) [][]*AnalyzedChange {
	shards := ShardChanges(d.collect(ctx, c), n)
	out := make([][]*AnalyzedChange, len(shards))
	for i, sh := range shards {
		analyzed := d.AnalyzeAllCtx(ctx, sh)
		keep := make([]*AnalyzedChange, 0, len(analyzed))
		for _, a := range analyzed {
			if a != nil {
				keep = append(keep, a)
			}
		}
		out[i] = keep
	}
	return out
}

// MergeClassResults reduces per-shard class results (in shard order) into
// the monolithic ClassPipelineResult for that class: per-element filter
// counts sum, and survivors concatenate under a first-occurrence dedup by
// usage-change key — the same discipline change.Filter's fdup applies, so
// the merged survivor list is element- and order-identical to filtering
// the unsharded extraction.
func MergeClassResults(class string, parts ...ClassPipelineResult) ClassPipelineResult {
	merged := ClassPipelineResult{Class: class}
	seen := map[string]bool{}
	for _, p := range parts {
		merged.Stats.Total += p.Stats.Total
		merged.Stats.AfterSame += p.Stats.AfterSame
		merged.Stats.AfterAdd += p.Stats.AfterAdd
		merged.Stats.AfterRem += p.Stats.AfterRem
		for _, uc := range p.Survivors {
			uc := uc
			k := uc.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			merged.Survivors = append(merged.Survivors, uc)
		}
	}
	merged.Stats.AfterDup = len(merged.Survivors)
	return merged
}
