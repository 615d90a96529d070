package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// CountResp is the part of the /v1/count response the benchmark reads.
type CountResp struct {
	Objects     int        `json:"objects"`
	Budget      int        `json:"budget"`
	Estimate    float64    `json:"estimate"`
	CILo        float64    `json:"ci_lo"`
	CIHi        float64    `json:"ci_hi"`
	HasCI       bool       `json:"has_ci"`
	Evals       int64      `json:"evals"`
	TrueCount   *int       `json:"true_count"`
	Groups      []GroupRow `json:"groups"`
	PredicateMS float64    `json:"predicate_ms"`
	Compiled    bool       `json:"compiled"`
	Reuse       string     `json:"reuse"`
	Cached      bool       `json:"cached"`
	Trace       *SpanData  `json:"trace"`
}

// GroupRow is one group of a grouped count response.
type GroupRow struct {
	Key       []string `json:"key"`
	Estimate  float64  `json:"estimate"`
	CILo      float64  `json:"ci_lo"`
	CIHi      float64  `json:"ci_hi"`
	HasCI     bool     `json:"has_ci"`
	Sampled   int      `json:"sampled"`
	TrueCount *int     `json:"true_count"`
}

// IngestResp is the /v1/ingest response.
type IngestResp struct {
	Appended       int     `json:"appended"`
	Updated        int     `json:"updated"`
	Deleted        int     `json:"deleted"`
	Rows           int     `json:"rows"`
	Version        uint64  `json:"version"`
	Durable        bool    `json:"durable"`
	DurableVersion uint64  `json:"durable_version"`
	DurationMS     float64 `json:"duration_ms"`
}

// groupFloor is grouped estimation's per-group labeling floor. A group the
// shared sample covers below it, or whose interval collapsed to a point,
// is re-estimated from its own simple random sample of max(floor, the
// group's shared-sample size) objects, on top of the budget
// (internal/core GroupedLSS). Memoized labels make that draw cost at most
// its size.
const groupFloor = 10

// floatSlack is the relative rounding error the checks forgive. Estimates
// and bounds are sums of per-stratum terms: an estimate of 500 can come out
// as 500.0000000000001 beside a bound clamped to exactly 500.
const floatSlack = 1e-9

// within reports lo ≤ v ≤ hi up to floatSlack.
func within(v, lo, hi float64) bool {
	eps := floatSlack * math.Max(1, math.Abs(v))
	return lo-eps <= v && v <= hi+eps
}

// checkCount validates a count answer against the op's reference.
func checkCount(op Op, r *CountResp) error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) {
		fail("estimate %v is not finite", r.Estimate)
	}
	if r.Objects != op.Objects {
		fail("objects %d, reference |O| %d", r.Objects, op.Objects)
	}
	if r.HasCI && !within(r.Estimate, r.CILo, r.CIHi) {
		fail("estimate %v outside its interval [%v, %v]", r.Estimate, r.CILo, r.CIHi)
	}
	allowed := int64(r.Budget)
	for _, g := range r.Groups {
		allowed += int64(max(groupFloor, g.Sampled))
	}
	if r.Evals > allowed {
		fail("evals %d over budget %d (allowed %d)", r.Evals, r.Budget, allowed)
	}
	if op.Groups != nil {
		sum := 0.0
		var keys []string
		for _, g := range r.Groups {
			sum += g.Estimate
			keys = append(keys, strings.Join(g.Key, ","))
			if g.HasCI && !within(g.Estimate, g.CILo, g.CIHi) {
				fail("group %v estimate %v outside [%v, %v]", g.Key, g.Estimate, g.CILo, g.CIHi)
			}
		}
		if math.Abs(sum-r.Estimate) > floatSlack*math.Max(1, math.Abs(r.Estimate)) {
			fail("group estimates sum to %v, total %v", sum, r.Estimate)
		}
		var want []string
		for k := range op.Groups {
			want = append(want, k)
		}
		slices.Sort(want)
		slices.Sort(keys)
		if !slices.Equal(keys, want) {
			fail("groups %v, want exactly %v", keys, want)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", op.Query, strings.Join(errs, "; "))
}

// checkIngest validates an ingest acknowledgement against the model.
func checkIngest(op Op, r *IngestResp) error {
	got := DeltaWant{r.Appended, r.Updated, r.Deleted, r.Rows}
	if got != op.Want {
		return fmt.Errorf("ingest reported %+v, model %+v", got, op.Want)
	}
	if !r.Durable || r.DurableVersion != r.Version {
		return fmt.Errorf("ingest durable=%t durable_version=%d, version %d", r.Durable, r.DurableVersion, r.Version)
	}
	return nil
}
