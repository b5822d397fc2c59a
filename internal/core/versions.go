package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// This file holds a mining batch's version table (DESIGN.md §8). In a
// commit history one change's new file is usually the next change's old
// file, so about half the versions of a corpus batch repeat an earlier
// one byte for byte. The table gives each distinct source text one
// leader: the first change, in input order, that carries it. Only the
// leader parses and interprets the text; every later change carrying it
// takes the leader's result.
//
// Three rules keep the sharing deadlock-free, parallel and deterministic:
//
//   - A change first analyses the versions it leads, and only then waits
//     for versions led by earlier changes. A change's level is 0 when it
//     leads both its versions, and otherwise one more than the highest
//     level among the leaders it follows. A pool of several workers
//     dispatches changes by level, then by input index, so a leader is
//     always running or done when a follower waits on it, a leader never
//     waits before it publishes, and a history's neighbours run a whole
//     level apart instead of waiting on each other in lockstep. One worker
//     keeps input order: it can never wait, and fail-fast then stops at the
//     first failing change in input order.
//   - A leader publishes each version as soon as its interpretation ends,
//     not when its whole task ends (artifact encoding and disk writes come
//     later). A leader that fails, is skipped, or resolves from the warm
//     artifact store publishes no result, and its followers run live.
//   - Leaders are fixed by input order in a serial pre-pass, never elected
//     by whichever goroutine arrives first, so span trees and trace
//     fingerprints are the same at any worker count and dispatch order.

// version is one distinct source text of a batch.
type version struct {
	// leader is the index of the first change carrying the text.
	leader int
	// ready is set, and done released, once the leader has published. The
	// fields below are written by the leader before that and are read-only
	// after.
	ready atomic.Bool
	done  sync.WaitGroup
	// res is nil when the leader published no result.
	res   *analysis.Result
	uses  map[string]bool
	steps int64
}

// versionTable maps each change of a batch to the two versions it carries
// (one and the same version when the change's Old equals its New) and to
// its dispatch level.
type versionTable struct {
	vers  [][2]*version
	level []int
}

// newVersionTable is the batch's serial pre-pass: it maps each version's
// content to the first change that carries it, and gives each change its
// level. A leader precedes its followers in input order, so its level is
// known when a follower's is computed. A batch of n changes has at most 2n
// versions: they come from one slab, and the text map is sized for all of
// them so it never grows.
func newVersionTable(ccs []mining.CodeChange) versionTable {
	byText := make(map[string]*version, 2*len(ccs))
	slab := make([]version, 0, 2*len(ccs))
	at := func(src string, i int) *version {
		v := byText[src]
		if v == nil {
			slab = slab[:len(slab)+1]
			v = &slab[len(slab)-1]
			v.leader = i
			v.done.Add(1)
			byText[src] = v
		}
		return v
	}
	t := versionTable{vers: make([][2]*version, len(ccs)), level: make([]int, len(ccs))}
	for i, cc := range ccs {
		t.vers[i] = [2]*version{at(cc.Old, i), at(cc.New, i)}
		for _, v := range t.vers[i] {
			if v.leader != i {
				t.level[i] = max(t.level[i], t.level[v.leader]+1)
			}
		}
	}
	return t
}

// order returns the batch's dispatch order for a pool of the given size:
// slot j of the pool runs change order[j]. Several workers take changes by
// level, then by input index, so every leader is dispatched before its
// followers; one worker takes them in input order.
func (t versionTable) order(workers int) []int {
	order := make([]int, 0, len(t.vers))
	if workers <= 1 {
		for i := range t.vers {
			order = append(order, i)
		}
		return order
	}
	// A change's level is at most one more than a level met earlier in
	// input order (its leader's), so the buckets grow one level at a time.
	var byLevel [][]int
	for i, l := range t.level {
		if l == len(byLevel) {
			byLevel = append(byLevel, nil)
		}
		byLevel[l] = append(byLevel[l], i)
	}
	for _, is := range byLevel {
		order = append(order, is...)
	}
	return order
}

// run returns change i's view of the table.
func (t versionTable) run(i int) *versionRun {
	return &versionRun{i: i, vers: t.vers[i]}
}

// versionRun is one change's view of the version table: its two versions
// (0 = old, 1 = new) and what it has resolved of them so far.
type versionRun struct {
	i    int
	vers [2]*version
	res  [2]*analysis.Result
	uses [2]map[string]bool
}

// leads reports whether the change analyses slot k itself: it leads the
// version, and slot k is not the repeat of its own old version (a change
// whose Old equals its New analyses that version once).
func (r *versionRun) leads(k int) bool {
	return r.vers[k].leader == r.i && (k == 0 || r.vers[1] != r.vers[0])
}

// leadsAny reports whether the change leads either of its versions.
func (r *versionRun) leadsAny() bool { return r.leads(0) || r.leads(1) }

// publish records the leader's analysis of slot k — res, the step count it
// cost, and the classes the source mentions — and releases its followers.
func (r *versionRun) publish(k int, res *analysis.Result, steps int64, src string) {
	v := r.vers[k]
	r.res[k], r.uses[k] = res, classUses(src)
	v.res, v.uses, v.steps = res, r.uses[k], steps
	v.publish()
}

// publish releases the version's followers. Only its leader calls it, once.
func (v *version) publish() {
	v.ready.Store(true)
	v.done.Done()
}

// release publishes "no result" for every version the change leads but has
// not published, so its followers run live. It is deferred around the
// change's whole task and covers every failure and skip path.
func (r *versionRun) release() {
	for k := range r.vers {
		if v := r.vers[k]; r.leads(k) && !v.ready.Load() {
			v.publish()
		}
	}
}

// await blocks until the leaders of both versions have published.
func (r *versionRun) await(reg *obs.Registry) {
	for _, v := range r.vers {
		v.wait(reg)
	}
}

// take fills slot k from its leader's published result, charging the
// recorded step count to the change's budget so budgets stay exact. It
// reports false when the leader published no result.
func (r *versionRun) take(k int, budget *resilience.Budget, reg *obs.Registry) (bool, error) {
	v := r.vers[k]
	v.wait(reg)
	if v.res == nil {
		return false, nil
	}
	r.res[k], r.uses[k] = v.res, v.uses
	return true, budget.StepN(v.steps)
}

// wait blocks until v's leader has published. A wait that blocks bumps
// analysis.version_waits and adds the time blocked to
// analysis.version_wait_us; a version already published reads no clock.
func (v *version) wait(reg *obs.Registry) {
	if v.ready.Load() {
		return
	}
	start := reg.Now()
	v.done.Wait()
	reg.Counter("analysis.version_waits").Inc()
	reg.Counter("analysis.version_wait_us").Add(reg.Now().Sub(start).Microseconds())
}

// usesOf returns the classes the source of slot k mentions, computing them
// when no analysis of the version has been resolved.
func (r *versionRun) usesOf(k int, src string) map[string]bool {
	if r.uses[k] == nil {
		r.uses[k] = classUses(src)
	}
	return r.uses[k]
}

// classUses records which target classes a source mentions. It returns one
// of the shared read-only maps of useSets.
func classUses(src string) map[string]bool {
	bits := 0
	for j, c := range cryptoapi.TargetClasses {
		if mining.UsesClass(src, c) {
			bits |= 1 << j
		}
	}
	return useSets()[bits]
}

// useSets holds every possible class-use map, one per subset of the target
// classes (bit j set: TargetClasses[j] is used), built once.
var useSets = sync.OnceValue(func() []map[string]bool {
	sets := make([]map[string]bool, 1<<len(cryptoapi.TargetClasses))
	for bits := range sets {
		m := make(map[string]bool, len(cryptoapi.TargetClasses))
		for j, c := range cryptoapi.TargetClasses {
			m[c] = bits&(1<<j) != 0
		}
		sets[bits] = m
	}
	return sets
})
