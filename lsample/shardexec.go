package lsample

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/shard"
	"repro/internal/sql"
)

// This file is the sharded execution layer: WithShards(s) partitions the
// enumerated population by a hash of the object key, runs the
// deterministic hash-plan recipe independently per shard through
// internal/shard.Drive, and merges the partial tallies. The merged
// estimate is byte-identical to the unsharded catalog-path run at every
// shard count, because every sampling decision is a pure function of
// (key, seed, tag) and every merge is an exact set union or integer sum.
//
// PrepareShard exposes one shard's primitives (ShardExec) for
// out-of-process workers: a coordinator scatters the same ops over HTTP
// and merges with the identical driver.

// ShardCand is one bottom-k sampling candidate: the object key and its
// selection hash. Per-shard candidate sets merge by re-sorting on
// (hash, key), recovering exactly the unsharded selection.
type ShardCand struct {
	// Hash is the selection hash Mix64(seed, tag, key).
	Hash uint64 `json:"hash"`
	// Key is the object key.
	Key int64 `json:"key"`
}

// ShardGroupCount is one group's tally on one shard.
type ShardGroupCount struct {
	// Key is the group's canonical identity (parts joined with \x1f).
	Key string `json:"key"`
	// Parts are the rendered group-key components.
	Parts []string `json:"parts,omitempty"`
	// N is the group's population on this shard.
	N int `json:"n"`
	// Pos is the group's positive count (full labeling passes only).
	Pos int `json:"pos,omitempty"`
}

// ShardMeta is a shard's population census.
type ShardMeta struct {
	// N is the number of objects the shard owns.
	N int `json:"n"`
	// Groups is the shard's per-group census (grouped queries only).
	Groups []ShardGroupCount `json:"groups,omitempty"`
}

// ShardScored is one object's shard-local record: key, classifier score
// (zero for ops that do not score), and canonical group (empty for plain
// queries).
type ShardScored struct {
	// Key is the object key.
	Key int64 `json:"key"`
	// Score is the classifier score (zero for ops that do not score).
	Score float64 `json:"score"`
	// Group is the canonical group key (empty for plain queries).
	Group string `json:"group,omitempty"`
}

// ShardTally is a shard's full labeling pass: population, labeled count,
// positives, per-group tallies, and fresh predicate evaluations spent.
type ShardTally struct {
	// N is the shard's population.
	N int `json:"n"`
	// Sampled is the number of labeled objects (N for a full pass).
	Sampled int `json:"sampled"`
	// Positives is the number of objects satisfying the predicate.
	Positives int `json:"positives"`
	// Fresh is the fresh predicate evaluations this pass spent.
	Fresh int `json:"fresh"`
	// Groups carries the per-group tallies (grouped queries only).
	Groups []ShardGroupCount `json:"groups,omitempty"`
}

// shardLabeler answers one shard's label queries: a memo (optionally
// backed by a reuse-catalog entry scoped to this shard's layout) in front
// of a lazily built predicate. Labels are pure functions of (snapshot,
// key, predicate), so memo hits are byte-identical to fresh evaluations.
type shardLabeler struct {
	mu       sync.Mutex
	labels   map[int64]bool
	keys     []int64 // global keys by object position
	posByKey map[int64]int
	getPred  func() (predicate.Predicate, Labeling, error)
	pred     predicate.Predicate
	tp       *timedPredicate
	lab      Labeling
	haveLab  bool
	fresh    int

	entry   *catalog.Entry // nil without a catalog
	entryFP string
	cat     *catalog.Catalog
}

// label returns labels for the given distinct shard-owned keys, spending
// predicate evaluations only on memo misses (evaluated in ascending
// object order through the batch path, byte-identical at any
// parallelism).
func (l *shardLabeler) label(ctx context.Context, sel []int64) ([]bool, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var missing []int
	for _, k := range sel {
		if _, ok := l.labels[k]; !ok {
			missing = append(missing, l.posByKey[k])
		}
	}
	if len(missing) > 0 {
		if l.pred == nil {
			p, lab, err := l.getPred()
			if err != nil {
				return nil, 0, err
			}
			l.lab, l.haveLab = lab, true
			l.tp = &timedPredicate{p: p}
			l.pred = l.tp
		}
		sort.Ints(missing)
		missing = dedupSortedInts(missing)
		fresh, err := labelIndices(ctx, l.pred, missing)
		if err != nil {
			return nil, 0, err
		}
		for j, p := range missing {
			l.labels[l.keys[p]] = fresh[j]
		}
		l.fresh += len(missing)
		if l.entry != nil {
			l.entry.Lock()
			m := l.entry.Labels(l.entryFP, l.cat.Clock())
			for j, p := range missing {
				m[l.keys[p]] = fresh[j]
			}
			l.entry.Unlock()
		}
	}
	out := make([]bool, len(sel))
	for j, k := range sel {
		out[j] = l.labels[k]
	}
	return out, len(missing), nil
}

// shardRun is one sharded execution's materialized state: the enumerated
// population partitioned into per-shard workers, their labelers, and any
// acquired catalog entries.
type shardRun struct {
	fp       string
	n        int
	featCols []string
	groupKey [][]engine.Value // grouped: group tuples by group index
	canon    []string         // grouped: canonical key by group index
	workers  []shard.Worker
	labelers []*shardLabeler
	entries  []*catalog.Entry
	prev     []int64 // entry budgets at acquire time
	cat      *catalog.Catalog
}

// close releases catalog entries with their reuse classification.
func (r *shardRun) close() {
	for i, e := range r.entries {
		if e == nil {
			continue
		}
		reuse := ReuseNone
		if r.prev[i] > 0 {
			if r.labelers[i].fresh == 0 {
				reuse = ReuseDirect
			} else {
				reuse = ReuseExtension
			}
		}
		r.cat.Release(e, reuse)
		r.entries[i] = nil
	}
}

// reuse aggregates the per-shard reuse classifications into the
// Estimate.Reuse report: direct only when every shard was served from
// memoized labels alone.
func (r *shardRun) reuse() string {
	if r.cat == nil {
		return ""
	}
	allPrev, allDirect := true, true
	for i := range r.entries {
		if r.prev[i] == 0 {
			allPrev = false
		}
		if r.labelers[i].fresh > 0 {
			allDirect = false
		}
	}
	switch {
	case !allPrev:
		return ReuseNone
	case allDirect:
		return ReuseDirect
	default:
		return ReuseExtension
	}
}

// labeling reports which predicate path the run took: the first shard
// that built a predicate speaks for all (every shard builds the same
// one), with the worker count reflecting the shard fan-out.
func (r *shardRun) labeling() Labeling {
	for _, l := range r.labelers {
		if l.haveLab {
			lab := l.lab
			lab.Workers = len(r.workers)
			return lab
		}
	}
	return Labeling{Fallback: "shard label memo, no fresh labels", Workers: len(r.workers)}
}

// predicateTime sums the wall time spent inside the expensive predicate
// across shards.
func (r *shardRun) predicateTime() time.Duration {
	var d time.Duration
	for _, l := range r.labelers {
		if l.tp != nil {
			d += l.tp.dur
		}
	}
	return d
}

// samplesUsed sums fresh predicate evaluations across shards.
func (r *shardRun) samplesUsed() int64 {
	var n int64
	for _, l := range r.labelers {
		n += int64(l.fresh)
	}
	return n
}

// buildShardRun enumerates the population, validates the sharded-execution
// contract (srs/lss/oracle over a unique integer object key), partitions
// it into count hash-aligned shards, and constructs the per-shard workers.
// only (when >= 0) restricts construction to that single shard — the
// out-of-process worker path, which still enumerates the full population
// (cheap Q2) but materializes just its own slice.
func (q *PreparedQuery) buildShardRun(cfg config, vals map[string]engine.Value,
	strs map[string]string, count, only int) (*shardRun, error) {

	switch cfg.method {
	case "srs", "lss", "oracle":
	default:
		return nil, badf("method %q cannot run sharded (want one of %v)", cfg.method, GroupMethods())
	}
	if count < 1 {
		return nil, badf("shard count %d < 1", count)
	}
	if only >= count {
		return nil, badf("shard index %d out of range of %d shards", only, count)
	}

	ev := engine.NewEvaluator(q.cat)
	for name, v := range vals {
		ev.SetParam(name, v)
	}
	objects, err := q.enumerate(ev, vals)
	if err != nil {
		return nil, badf("enumerating objects: %v", err)
	}
	n := objects.NumRows()
	r := &shardRun{fp: sql.Fingerprint(q.inner, strs), n: n}

	if _, err := q.objectKeyColumn(); err != nil {
		return nil, badf("sharded execution needs a unique integer object key: %v", err)
	}
	keys := make([]int64, n)
	posByKey := make(map[int64]int, n)
	for i := 0; i < n; i++ {
		v := objects.Value(i, q.keyPos())
		if v.Kind != engine.KInt {
			return nil, badf("sharded execution needs an integer object key")
		}
		keys[i] = v.I
		posByKey[v.I] = i
	}
	if len(posByKey) != n {
		return nil, badf("sharded execution needs a unique object key (duplicates found)")
	}

	var features [][]float64
	if needsFeatures(cfg.method) {
		fv, cols, ferr := q.featureVectors(objects, strs)
		if ferr != nil {
			return nil, ferr
		}
		features = fv
		r.featCols = cols
	}

	var canonOf []string // per object position; nil for plain queries
	partsOf := map[string][]string{}
	if q.grouped != nil {
		groupOf, gkeys := q.grouped.GroupLabels(objects)
		r.groupKey = gkeys
		r.canon = make([]string, len(gkeys))
		for g, kv := range gkeys {
			parts := renderKey(kv)
			c := strings.Join(parts, "\x1f")
			r.canon[g] = c
			partsOf[c] = parts
		}
		canonOf = make([]string, n)
		for i, g := range groupOf {
			canonOf[i] = r.canon[g]
		}
	}

	// Partition by key hash — stable under any enumeration order and
	// independent of the shard count's factorization.
	shardKeys := make([][]int64, count)
	shardFeats := make([][][]float64, count)
	shardGroups := make([][]string, count)
	for i, k := range keys {
		s := shard.OwnerOf(k, count)
		if only >= 0 && s != only {
			continue
		}
		shardKeys[s] = append(shardKeys[s], k)
		if features != nil {
			shardFeats[s] = append(shardFeats[s], features[i])
		}
		if canonOf != nil {
			shardGroups[s] = append(shardGroups[s], canonOf[i])
		}
	}

	var trainer *shard.Trainer
	if needsFeatures(cfg.method) {
		newClf, cerr := cfg.buildClassifier()
		if cerr != nil {
			return nil, cerr
		}
		trainer = shard.NewTrainer(newClf)
	}

	useCatalog := cfg.catalog != nil
	if useCatalog {
		r.cat = cfg.catalog.inner
	}
	for s := 0; s < count; s++ {
		if only >= 0 && s != only {
			continue
		}
		l := &shardLabeler{
			labels:   make(map[int64]bool),
			keys:     keys,
			posByKey: posByKey,
			getPred: func() (predicate.Predicate, Labeling, error) {
				// Each shard gets its own evaluator: the interpreted engine
				// carries per-evaluation state and must not be shared across
				// the driver's concurrent scatter.
				sev := engine.NewEvaluator(q.cat)
				for name, v := range vals {
					sev.SetParam(name, v)
				}
				return buildEnginePredicate(sev, q.dec, objects, q.prog, q.progErr, vals, cfg, nil)
			},
		}
		var entry *catalog.Entry
		var prev int64
		if useCatalog {
			key := q.catalogKey(cfg, strs, r.featCols)
			key.Shard = shard.Spec{Index: s, Count: count}.String()
			entry = r.cat.Acquire(key)
			entry.Lock()
			prev = int64(entry.Budget)
			if entry.Budget == 0 {
				entry.Budget = 1 // mark materialized; shard entries hold only labels
			}
			m := entry.Labels(r.fp, r.cat.Clock())
			for k, v := range m {
				l.labels[k] = v
			}
			entry.Unlock()
			l.entry, l.entryFP, l.cat = entry, r.fp, r.cat
		}
		w := shard.NewLocal(cfg.seed, shardKeys[s], shardFeats[s], shardGroups[s], partsOf, l.label, trainer)
		r.workers = append(r.workers, w)
		r.labelers = append(r.labelers, l)
		r.entries = append(r.entries, entry)
		r.prev = append(r.prev, prev)
	}
	return r, nil
}

// shardPlan maps the resolved config onto the driver's plan.
func (cfg config) shardPlan(grouped bool, alpha float64) shard.Plan {
	return shard.Plan{
		Method:   cfg.method,
		Grouped:  grouped,
		BudgetOf: cfg.budgetFor,
		Strata:   cfg.strata,
		Seed:     cfg.seed,
		Alpha:    alpha,
		Wilson:   cfg.interval == Wilson,
		Exact:    cfg.exact,
	}
}

// executeSharded runs a plain counting query across cfg.shards in-process
// shards. Unlike the catalog fast path it never falls through: shapes or
// methods outside the sharded contract are request errors.
func (q *PreparedQuery) executeSharded(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (*Estimate, error) {

	t0 := time.Now()
	r, err := q.buildShardRun(cfg, vals, strs, cfg.shards, -1)
	if err != nil {
		return nil, err
	}
	defer r.close()

	out := &Estimate{
		Method:         cfg.method,
		Fingerprint:    r.fp,
		Objects:        r.n,
		Seed:           cfg.seed,
		FeatureColumns: r.featCols,
		Reuse:          ReuseNone,
	}
	if r.n == 0 {
		out.CI = &ConfidenceInterval{Level: 1 - alpha}
		if cfg.exact {
			zero := 0
			out.TrueCount = &zero
		}
		return out, nil
	}

	res, err := shard.Drive(ctx, cfg.shardPlan(false, alpha), r.workers)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("lsample: %w", err)
		}
		return nil, fmt.Errorf("lsample: sharded estimation failed: %w", err)
	}

	out.Budget = res.Budget
	out.Count = res.Count
	out.Proportion = res.Proportion
	if res.HasCI {
		out.CI = &ConfidenceInterval{Lo: res.CILo, Hi: res.CIHi, Level: 1 - alpha}
	}
	if res.HasTrue {
		tc := res.TrueCount
		out.TrueCount = &tc
	}
	out.SamplesUsed = r.samplesUsed()
	out.ReusedLabels = res.ReusedLabels
	out.Labeling = r.labeling()
	if rs := r.reuse(); rs != "" {
		out.Reuse = rs
	}
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: r.predicateTime()}
	return out, nil
}

// executeShardedGroups runs a GROUP BY counting query across cfg.shards
// in-process shards; the per-group results follow the ExecuteGroups
// ordering contract (ascending typed key order).
func (q *PreparedQuery) executeShardedGroups(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (*GroupedEstimate, error) {

	t0 := time.Now()
	r, err := q.buildShardRun(cfg, vals, strs, cfg.shards, -1)
	if err != nil {
		return nil, err
	}
	defer r.close()

	out := &GroupedEstimate{
		Method:         cfg.method,
		Fingerprint:    r.fp,
		GroupColumns:   q.GroupColumns(),
		Objects:        r.n,
		Seed:           cfg.seed,
		FeatureColumns: r.featCols,
	}
	if r.n == 0 {
		return out, nil
	}

	res, err := shard.Drive(ctx, cfg.shardPlan(true, alpha), r.workers)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("lsample: %w", err)
		}
		return nil, fmt.Errorf("lsample: sharded grouped estimation failed: %w", err)
	}

	byCanon := make(map[string]shard.Group, len(res.Groups))
	for _, g := range res.Groups {
		byCanon[g.Key] = g
	}
	order := make([]int, len(r.groupKey))
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(a, b int) bool { return lessKey(r.groupKey[order[a]], r.groupKey[order[b]]) })
	out.Budget = res.Budget
	out.Groups = make([]GroupResult, 0, len(order))
	for _, g := range order {
		sg, ok := byCanon[r.canon[g]]
		if !ok {
			return nil, fmt.Errorf("lsample: sharded run lost group %q", r.canon[g])
		}
		gr := GroupResult{
			Key:        sg.Parts,
			Objects:    sg.N,
			Count:      sg.Count,
			Proportion: sg.Proportion,
			Sampled:    sg.Sampled,
			Exact:      sg.Exact,
		}
		if sg.HasCI {
			gr.CI = &ConfidenceInterval{Lo: sg.CILo, Hi: sg.CIHi, Level: 1 - alpha}
		}
		if sg.HasTrue {
			tc := sg.TrueCount
			gr.TrueCount = &tc
		}
		out.Total += sg.Count
		out.Groups = append(out.Groups, gr)
	}
	out.SamplesUsed = r.samplesUsed()
	out.Labeling = r.labeling()
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: r.predicateTime()}
	return out, nil
}

// ShardExec serves one shard's estimation primitives for an
// out-of-process coordinator: the same seven operations internal workers
// answer, expressed over wire-friendly types. Obtain one with
// PrepareShard; a worker process typically caches it across requests and
// Close-s it on eviction. All methods are safe for concurrent use.
type ShardExec struct {
	run    *shardRun
	index  int
	count  int
	closeO sync.Once
}

// PrepareShard materializes shard index of count for this query with the
// given bound parameters: the population slice owned by the shard, its
// feature rows, and a label memo (catalog-backed when the options carry
// one, under a key scoped to this exact shard layout). The options follow
// the Execute contract; the method must be srs, lss, or oracle and the
// query must have a unique integer object key.
func (q *PreparedQuery) PrepareShard(ctx context.Context, index, count int,
	params map[string]any, opts ...Option) (*ShardExec, error) {

	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= count {
		return nil, badf("shard index %d out of range of %d shards", index, count)
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	r, err := q.buildShardRun(cfg, vals, strs, count, index)
	if err != nil {
		return nil, err
	}
	return &ShardExec{run: r, index: index, count: count}, nil
}

// Shard returns the shard identity this executor serves.
func (x *ShardExec) Shard() (index, count int) { return x.index, x.count }

// Fingerprint returns the parameter-bound query fingerprint the executor
// was prepared for.
func (x *ShardExec) Fingerprint() string { return x.run.fp }

// FeatureColumns returns the automatically selected feature columns (nil
// for methods that need no features).
func (x *ShardExec) FeatureColumns() []string { return x.run.featCols }

// Close releases the executor's catalog entries. Estimation ops must not
// be called after Close.
func (x *ShardExec) Close() { x.closeO.Do(x.run.close) }

func (x *ShardExec) worker() shard.Worker { return x.run.workers[0] }

// Meta returns the shard's population census.
func (x *ShardExec) Meta(ctx context.Context) (ShardMeta, error) {
	m, err := x.worker().Meta(ctx)
	if err != nil {
		return ShardMeta{}, err
	}
	out := ShardMeta{N: m.N}
	for _, g := range m.Groups {
		out.Groups = append(out.Groups, ShardGroupCount{Key: g.Key, Parts: g.Parts, N: g.N, Pos: g.Pos})
	}
	return out, nil
}

// Cands returns the shard's bottom-k sampling candidates under the given
// tag.
func (x *ShardExec) Cands(ctx context.Context, k int, tag uint64) ([]ShardCand, error) {
	cs, err := x.worker().Cands(ctx, k, tag)
	if err != nil {
		return nil, err
	}
	out := make([]ShardCand, len(cs))
	for i, c := range cs {
		out[i] = ShardCand{Hash: c.Hash, Key: c.Key}
	}
	return out, nil
}

// Label evaluates the expensive predicate for the given shard-owned keys,
// returning labels aligned with keys and the fresh evaluation count.
func (x *ShardExec) Label(ctx context.Context, keys []int64) ([]bool, int, error) {
	return x.worker().Label(ctx, keys)
}

// Features returns the feature vectors of the given shard-owned keys.
func (x *ShardExec) Features(ctx context.Context, keys []int64) ([][]float64, error) {
	return x.worker().Features(ctx, keys)
}

// ScoreAll trains the plan classifier on the broadcast learn sample and
// scores every object the shard owns.
func (x *ShardExec) ScoreAll(ctx context.Context, xs [][]float64, y []bool, clfSeed uint64) ([]ShardScored, error) {
	ss, err := x.worker().ScoreAll(ctx, xs, y, clfSeed)
	if err != nil {
		return nil, err
	}
	out := make([]ShardScored, len(ss))
	for i, s := range ss {
		out[i] = ShardScored{Key: s.Key, Score: s.Score, Group: s.Group}
	}
	return out, nil
}

// GroupKeys lists every shard-owned key with its canonical group.
func (x *ShardExec) GroupKeys(ctx context.Context) ([]ShardScored, error) {
	ss, err := x.worker().GroupKeys(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]ShardScored, len(ss))
	for i, s := range ss {
		out[i] = ShardScored{Key: s.Key, Score: s.Score, Group: s.Group}
	}
	return out, nil
}

// CountAll labels every shard-owned object and returns the tallies.
func (x *ShardExec) CountAll(ctx context.Context) (ShardTally, error) {
	p, gs, fresh, err := x.worker().CountAll(ctx)
	if err != nil {
		return ShardTally{}, err
	}
	out := ShardTally{N: p.N, Sampled: p.Sampled, Positives: p.Positives, Fresh: fresh}
	for _, g := range gs {
		out.Groups = append(out.Groups, ShardGroupCount{Key: g.Key, Parts: g.Parts, N: g.N, Pos: g.Pos})
	}
	return out, nil
}

// EvictShardLayout drops every sharded entry whose layout disagrees with
// the given shard count, keeping unsharded entries. A reshard changes
// every entry key anyway (the Shard component embeds the layout), so old
// entries could never be wrongly reused — this reclaims their bytes
// promptly instead of waiting for LFU pressure.
func (c *Catalog) EvictShardLayout(count int) int {
	suffix := fmt.Sprintf("/%d", count)
	return c.inner.Invalidate(func(k catalog.Key) bool {
		return k.Shard != "" && !strings.HasSuffix(k.Shard, suffix)
	})
}
