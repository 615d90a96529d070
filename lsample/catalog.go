package lsample

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/estimate"
	"repro/internal/learn"
	"repro/internal/live"
	"repro/internal/predicate"
	"repro/internal/sql"
)

// Reuse classifications reported in Estimate.Reuse by catalog-served
// executions.
const (
	// ReuseDirect reports that materialized artifacts fully covered the
	// plan: sampling and learning were skipped.
	ReuseDirect = catalog.ReuseDirect
	// ReuseExtension reports partial coverage: the hash bottom-k sample was
	// topped up (a strict prefix extension) and the classifier retrained at
	// the new learn-sample size, reusing every memoized label.
	ReuseExtension = catalog.ReuseExtension
	// ReuseNone reports that this execution materialized a fresh entry.
	ReuseNone = catalog.ReuseNone
)

// Catalog is the cross-query reuse catalog: a bounded, thread-safe store
// of learn-phase artifacts — hash-selected samples (as per-key labels),
// trained classifiers, score strata — keyed by (table snapshots, Q1
// shape, feature-column set, estimation plan). Attach one with
// WithCatalog (or WithCatalogBudget) and SQL executions of the srs, lss,
// and oracle methods reuse each other's work: direct reuse when a plan is
// already materialized, deterministic sample extension when only the
// budget grew, materialization on a miss with size-weighted LFU eviction.
// A Catalog may be shared by any number of sessions and queries serving
// the same snapshots; see the package documentation ("Cross-query reuse
// catalog") for the determinism contract.
type Catalog struct {
	inner *catalog.Catalog
}

// NewCatalog returns an empty reuse catalog bounded to maxBytes of
// estimated resident artifact size (<= 0 selects the default 64 MiB).
func NewCatalog(maxBytes int64) *Catalog {
	return &Catalog{inner: catalog.New(maxBytes)}
}

// SetMaxBytes adjusts the catalog's byte budget, evicting immediately if
// the resident artifacts exceed the new bound.
func (c *Catalog) SetMaxBytes(maxBytes int64) { c.inner.SetMaxBytes(maxBytes) }

// CatalogStats is a point-in-time snapshot of a reuse catalog's
// accounting, in the shape the service's /v1/stats endpoint serves.
type CatalogStats struct {
	// Entries is the number of materialized plans currently resident.
	Entries int `json:"entries"`
	// Bytes is the estimated resident size of all artifacts.
	Bytes int64 `json:"bytes"`
	// Hits counts direct-reuse executions.
	Hits int64 `json:"hits"`
	// Extensions counts extension executions (sample top-up / retrain).
	Extensions int64 `json:"extensions"`
	// Misses counts executions that materialized a fresh entry.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed by the byte budget or invalidation.
	Evictions int64 `json:"evictions"`
}

// Stats returns the catalog's current accounting snapshot.
func (c *Catalog) Stats() CatalogStats {
	s := c.inner.Stats()
	return CatalogStats{
		Entries:    s.Entries,
		Bytes:      s.Bytes,
		Hits:       s.Hits,
		Extensions: s.Extensions,
		Misses:     s.Misses,
		Evictions:  s.Evictions,
	}
}

// EvictStale drops every entry that references a table snapshot no longer
// in current (keyed by table name): a different pinned snapshot of the
// same name, or a name absent from current entirely. Serving layers call
// it whenever a registration or ingest publishes a new snapshot, so a
// replaced table can never keep serving reuse hits from its old data.
// It returns the number of entries dropped.
func (c *Catalog) EvictStale(current map[string]*Table) int {
	ids := make(map[string]uint64, len(current))
	for name, t := range current {
		if t != nil {
			ids[name] = t.snapshotID()
		}
	}
	return c.inner.Invalidate(func(k catalog.Key) bool {
		pairs, ok := k.SnapshotTables()
		if !ok {
			return true
		}
		for name, id := range pairs {
			if ids[name] != id {
				return true
			}
		}
		return false
	})
}

// catalogKey builds the entry identity for one execution of this prepared
// query: pinned snapshot ids, the Q2 fingerprint under only the
// parameters Q2 reads (so Q3-only parameter changes share the entry), the
// feature-column set, and the estimation plan (method, classifier,
// strata, seed — everything that changes learned artifacts except the
// budget, which the extension path absorbs). The Shard component is left
// empty: per-shard executors fill it so partitioned artifacts compose
// without colliding.
func (q *PreparedQuery) catalogKey(cfg config, strs map[string]string, featCols []string) catalog.Key {
	parts := make([]string, 0, len(q.snaps))
	for name, t := range q.snaps {
		parts = append(parts, fmt.Sprintf("%s@%d", name, t.snapshotID()))
	}
	sort.Strings(parts)
	q2strs := make(map[string]string, len(strs))
	for name, v := range strs {
		if q.q2IDs[name] {
			q2strs[name] = v
		}
	}
	feats := "-"
	if len(featCols) > 0 {
		feats = strings.Join(featCols, ",")
	}
	clf, strata := "-", "-"
	if needsFeatures(cfg.method) {
		clf = cfg.classifier
		if clf == "" {
			clf = "rf"
		}
		H := cfg.strata
		if H < 2 {
			H = 4
		}
		strata = strconv.Itoa(H)
	}
	return catalog.Key{
		Snapshot: strings.Join(parts, ","),
		Query:    sql.Fingerprint(q.dec.Objects, q2strs),
		Features: feats,
		Plan:     cfg.method + "|" + clf + "|" + strata + "|" + strconv.FormatUint(cfg.seed, 10),
	}
}

// executeCatalog runs one estimation through the reuse catalog. It
// reports handled=false (and no error) when the execution is outside the
// catalog's contract — no catalog attached, a grouped query, a method
// other than srs/lss/oracle, or a query shape without a unique integer
// object key — in which case Execute falls through to the classic path.
// Once the execution is inside the contract, every error is a real
// request error, exactly as the classic path would have reported it.
//
// The determinism contract: for a fixed (pinned snapshots, query,
// parameters, method, budget, seed), the estimate is byte-identical
// regardless of what the catalog already holds. Reused state is only ever
// (a) memoized labels, which are pure functions of (snapshot, key,
// predicate), and (b) a classifier trained by the exact deterministic
// procedure a cold run would execute — same hash-selected learn sample,
// same labels, same seed Mix64(seed, TRAIN, kLearn). The one documented
// exception: a plan materialized under a different predicate (Q3-only
// parameter change) reuses its classifier as the stratification function
// without retraining — a legitimately different, still unbiased design;
// relabeling under the new predicate keeps the estimate itself sound.
func (q *PreparedQuery) executeCatalog(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (*Estimate, bool, error) {

	if cfg.catalog == nil || q.grouped != nil {
		return nil, false, nil
	}
	switch cfg.method {
	case "srs", "lss", "oracle":
	default:
		return nil, false, nil
	}
	if _, err := q.objectKeyColumn(); err != nil {
		return nil, false, nil
	}
	t0 := time.Now()
	fp := sql.Fingerprint(q.inner, strs)

	ev := engine.NewEvaluator(q.cat)
	for name, v := range vals {
		ev.SetParam(name, v)
	}
	objects, err := q.enumerate(ev, vals)
	if err != nil {
		return nil, true, badf("enumerating objects: %v", err)
	}
	n := objects.NumRows()
	out := &Estimate{Method: cfg.method, Fingerprint: fp, Objects: n, Seed: cfg.seed, Reuse: ReuseNone}
	if n == 0 {
		out.CI = &ConfidenceInterval{Level: 1 - alpha}
		if cfg.exact {
			zero := 0
			out.TrueCount = &zero
		}
		return out, true, nil
	}
	keys := make([]int64, n)
	posByKey := make(map[int64]int, n)
	for i := 0; i < n; i++ {
		v := objects.Value(i, q.keyPos())
		if v.Kind != engine.KInt {
			return nil, false, nil
		}
		keys[i] = v.I
		posByKey[v.I] = i
	}
	if len(posByKey) != n {
		// Duplicate keys would alias label memo slots; leave such shapes to
		// the classic path (which re-enumerates and errors where it must).
		return nil, false, nil
	}

	var features [][]float64
	if needsFeatures(cfg.method) {
		fv, cols, ferr := q.featureVectors(objects, strs)
		if ferr != nil {
			return nil, true, ferr
		}
		features = fv
		out.FeatureColumns = cols
	}

	key := q.catalogKey(cfg, strs, out.FeatureColumns)
	e := cfg.catalog.inner.Acquire(key)
	reuse := "" // set on success; "" records nothing after an error
	defer func() { cfg.catalog.inner.Release(e, reuse) }()
	e.Lock()
	defer e.Unlock()
	prevBudget := e.Budget

	// The expensive predicate is built lazily: an execution whose every
	// sampled label is already memoized never constructs it at all.
	var (
		tp       *timedPredicate
		labeling Labeling
		haveLab  bool
	)
	memo := &catalogMemo{
		labels:   e.Labels(fp, cfg.catalog.inner.Clock()),
		keys:     keys,
		posByKey: posByKey,
		getPred: func() (predicate.Predicate, error) {
			p, lab, perr := buildEnginePredicate(ev, q.dec, objects, q.prog, q.progErr, vals, cfg, nil)
			if perr != nil {
				return nil, perr
			}
			labeling, haveLab = lab, true
			tp = &timedPredicate{p: p}
			return tp, nil
		},
	}

	budget := cfg.budgetFor(n)
	out.Budget = budget
	direct := false
	switch cfg.method {
	case "oracle":
		labels, lerr := memo.label(ctx, keys)
		if lerr != nil {
			return nil, true, lerr
		}
		c := 0
		for _, b := range labels {
			if b {
				c++
			}
		}
		out.Count = float64(c)
		out.CI = &ConfidenceInterval{Lo: float64(c), Hi: float64(c), Level: 1 - alpha}
		direct = prevBudget > 0
		if e.Budget < n {
			e.Budget = n
		}

	case "srs":
		sel := bottomK(keys, budget, cfg.seed, hashTagSample)
		labels, lerr := memo.label(ctx, sel)
		if lerr != nil {
			return nil, true, lerr
		}
		pos := 0
		for _, b := range labels {
			if b {
				pos++
			}
		}
		var res estimate.Result
		if cfg.interval == Wilson {
			res = estimate.ProportionWilson(pos, len(sel), n, alpha)
		} else {
			res = estimate.Proportion(pos, len(sel), n, alpha)
		}
		out.Count = res.Count
		out.CI = &ConfidenceInterval{Lo: res.CI.Lo, Hi: res.CI.Hi, Level: 1 - alpha}
		direct = prevBudget >= budget
		if e.Budget < budget {
			e.Budget = budget
		}

	case "lss":
		direct, err = q.catalogLSS(ctx, cfg, e, memo, keys, features, budget, alpha, out)
		if err != nil {
			return nil, true, err
		}
	}

	if cfg.exact {
		labels, lerr := memo.label(ctx, keys)
		if lerr != nil {
			return nil, true, lerr
		}
		tc := 0
		for _, b := range labels {
			if b {
				tc++
			}
		}
		out.TrueCount = &tc
	}

	out.Proportion = out.Count / float64(n)
	if tp != nil {
		out.SamplesUsed = tp.Evals()
	}
	out.ReusedLabels = memo.reused
	if haveLab {
		out.Labeling = labeling
	} else {
		out.Labeling = Labeling{Fallback: "catalog memo, no fresh labels", Workers: 1}
	}
	var pdur time.Duration
	if tp != nil {
		pdur = tp.dur
	}
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: pdur}

	switch {
	case prevBudget == 0:
		reuse = ReuseNone
	case direct:
		reuse = ReuseDirect
	default:
		reuse = ReuseExtension
	}
	out.Reuse = reuse
	return out, true, nil
}

// catalogLSS is the catalog-served learned-stratified estimate. Cold,
// direct-reuse, and extension executions all run the same deterministic
// procedure — hash bottom-k learn sample, classifier seeded by
// Mix64(seed, TRAIN, kLearn), full scoring, equal-count cuts,
// proportional allocation, per-stratum hash bottom-k — so reuse changes
// only which labels come from the memo, never the estimate. The sample
// tag is global (not per-stratum) so a budget extension's sample overlaps
// the materialized one even where the retrained cuts reshuffled strata.
// It reports direct=true when the entry's classifier was reused as-is.
func (q *PreparedQuery) catalogLSS(ctx context.Context, cfg config, e *catalog.Entry, memo *catalogMemo,
	keys []int64, features [][]float64, budget int, alpha float64, out *Estimate) (direct bool, err error) {

	n := len(keys)
	kLearn := int(math.Round(0.25 * float64(budget)))
	if kLearn < 2 {
		kLearn = 2
	}
	if kLearn > budget-2 {
		kLearn = budget - 2
	}
	if kLearn < 2 {
		return false, badf("budget %d too small for a catalog lss estimate", budget)
	}
	H := cfg.strata
	if H < 2 {
		H = 4
	}

	scores := e.Scores
	cuts := e.Cuts
	direct = e.Budget > 0 && e.KLearn == kLearn && e.Forest != nil && len(cuts) == H-1
	if direct {
		// The key pins (snapshot, Q2 identity), so every enumerated object
		// must already be scored; a gap means foreign artifacts — rebuild.
		for _, k := range keys {
			if _, ok := scores[k]; !ok {
				direct = false
				break
			}
		}
	}
	if !direct {
		learnSel := bottomK(keys, kLearn, cfg.seed, hashTagLearn)
		learnLabels, lerr := memo.label(ctx, learnSel)
		if lerr != nil {
			return false, lerr
		}
		newClf, cerr := cfg.buildClassifier()
		if cerr != nil {
			return false, cerr
		}
		clf := newClf(live.Mix64(cfg.seed, hashTagTrain, uint64(kLearn)))
		X := make([][]float64, len(learnSel))
		for j, k := range learnSel {
			X[j] = features[memo.posByKey[k]]
		}
		if ferr := clf.Fit(X, learnLabels); ferr != nil {
			return false, fmt.Errorf("lsample: training catalog classifier: %w", ferr)
		}
		scored := learn.ScoreAll(clf, features)
		scores = make(map[int64]float64, n)
		for i, k := range keys {
			scores[k] = scored[i]
		}
		sorted := append([]float64(nil), scored...)
		sort.Float64s(sorted)
		cuts = make([]float64, 0, H-1)
		for j := 1; j < H; j++ {
			pos := j * n / H
			if pos > 0 {
				pos--
			}
			cuts = append(cuts, sorted[pos])
		}
		if budget >= e.Budget {
			// Upgrade the entry; a smaller-budget recompute keeps the better
			// artifacts in place.
			e.Budget, e.KLearn, e.TrainFP = budget, kLearn, out.Fingerprint
			e.Forest, e.Scores, e.Cuts = clf, scores, cuts
		}
	}

	members := make([][]int64, H)
	sizes := make([]int, H)
	for _, k := range keys {
		h := sort.SearchFloat64s(cuts, scores[k])
		if h >= H {
			h = H - 1
		}
		members[h] = append(members[h], k)
		sizes[h]++
	}
	alloc := estimate.ProportionalAllocation(sizes, budget-kLearn, 2)
	strata := make([]estimate.StratumSample, H)
	for h := 0; h < H; h++ {
		sel := bottomK(members[h], alloc[h], cfg.seed, hashTagSample)
		labels, lerr := memo.label(ctx, sel)
		if lerr != nil {
			return direct, lerr
		}
		pos := 0
		for _, b := range labels {
			if b {
				pos++
			}
		}
		strata[h] = estimate.StratumSample{N: sizes[h], Sampled: len(sel), Positives: pos}
	}
	res, rerr := estimate.Stratified(strata, alpha)
	if rerr != nil {
		return direct, badf("%v", rerr)
	}
	out.Count = res.Count
	out.CI = &ConfidenceInterval{Lo: res.CI.Lo, Hi: res.CI.Hi, Level: 1 - alpha}
	return direct, nil
}

// catalogMemo answers label queries from a catalog entry's per-predicate
// label store, constructing the expensive predicate lazily and evaluating
// it only for keys the store cannot answer. Labels are pure functions of
// (snapshot, key, predicate), so a memo hit is byte-identical to a fresh
// evaluation; misses are labeled in ascending object order through the
// predicate's batch path, byte-identical at any parallelism.
type catalogMemo struct {
	labels   map[int64]bool
	keys     []int64
	posByKey map[int64]int
	getPred  func() (predicate.Predicate, error)
	pred     predicate.Predicate
	reused   int
}

// label returns labels for the given object keys, spending predicate
// evaluations only on memo misses.
func (m *catalogMemo) label(ctx context.Context, sel []int64) ([]bool, error) {
	var missing []int
	for _, k := range sel {
		if _, ok := m.labels[k]; !ok {
			missing = append(missing, m.posByKey[k])
		}
	}
	if len(missing) > 0 {
		if m.pred == nil {
			p, err := m.getPred()
			if err != nil {
				return nil, err
			}
			m.pred = p
		}
		sort.Ints(missing)
		missing = dedupSortedInts(missing)
		fresh, err := labelIndices(ctx, m.pred, missing)
		if err != nil {
			return nil, err
		}
		for j, p := range missing {
			m.labels[m.keys[p]] = fresh[j]
		}
	}
	out := make([]bool, len(sel))
	for j, k := range sel {
		out[j] = m.labels[k]
	}
	m.reused += len(sel) - len(missing)
	return out, nil
}
