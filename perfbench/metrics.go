package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sloMS is the dashboard latency limit.
const sloMS = 10

// countLat returns the latency of every count of the pass; failed counts
// are included at their observed latency.
func (p *Pass) countLat(phase string) []float64 {
	var out []float64
	for _, r := range p.Recs {
		if r.Op.Req != nil && (phase == "" || r.Op.Phase == phase) {
			out = append(out, r.Span.LatMS)
		}
	}
	return out
}

func (p *Pass) failures() (attempted, failed int) {
	for _, r := range p.Recs {
		attempted++
		if r.Err != nil {
			failed++
		}
	}
	return attempted, failed
}

// endToEnd computes the user-facing metrics of an untraced pass.
func endToEnd(p *Pass, setupS float64) map[string]float64 {
	lat := p.countLat("")
	return map[string]float64{
		"setup_s":                  setupS,
		"count_p50_ms":             quantile(lat, 0.5),
		"counts_per_s":             float64(len(lat)) / p.Elapsed.Seconds(),
		"peak_rss_mb":              p.RSSMiB,
		"process.cpu_ms_per_count": ratio(ms(p.CPU), float64(len(lat))),
	}
}

// accuracy computes answer quality over a pass's plain answers and
// per-group rows.
func accuracy(p *Pass) (relErrP50, widthP50, undercoverage float64) {
	var relErr, width []float64
	covered, intervals := 0, 0
	for _, r := range p.Recs {
		c := r.Count
		if c == nil || r.Err != nil {
			continue
		}
		truth := float64(r.Op.Truth)
		relErr = append(relErr, math.Abs(c.Estimate-truth)/truth)
		if c.HasCI {
			width = append(width, (c.CIHi-c.CILo)/truth)
			intervals++
			if c.CILo <= truth && truth <= c.CIHi {
				covered++
			}
		}
		for _, g := range c.Groups {
			if len(g.Key) != 1 || !g.HasCI {
				continue
			}
			t := float64(r.Op.Groups[g.Key[0]])
			intervals++
			if g.CILo <= t && t <= g.CIHi {
				covered++
			}
		}
	}
	if intervals > 0 {
		undercoverage = max(0, 0.95-float64(covered)/float64(intervals))
	}
	return median(relErr), median(width), undercoverage
}

// layerSelf accumulates each span name's self time: its duration minus the
// part of it covered by its children.
func layerSelf(sd *SpanData, acc map[string]float64) {
	if sd == nil {
		return
	}
	type iv struct{ lo, hi float64 }
	lo := float64(sd.Start.UnixNano()) / 1e6
	hi := lo + sd.DurationMS
	var ivs []iv
	for _, c := range sd.Children {
		clo := max(lo, float64(c.Start.UnixNano())/1e6)
		chi := min(hi, float64(c.Start.UnixNano())/1e6+c.DurationMS)
		if chi > clo {
			ivs = append(ivs, iv{clo, chi})
		}
		layerSelf(c, acc)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	acc[sd.Name] += max(0, sd.DurationMS-covered)
}

// layerTable is the traced pass's per-layer breakdown: self time per span
// name summed over counts, plus "http" (client span minus the server's
// count span) and the client-observed count wall time.
type layerTable struct {
	self   map[string]float64
	counts int
	wallMS float64
}

func layers(p *Pass) layerTable {
	t := layerTable{self: map[string]float64{}}
	for _, r := range p.Recs {
		if r.Op.Req == nil {
			continue
		}
		t.counts++
		t.wallMS += r.Span.DurMS
		if r.Span.Server != nil {
			t.self["http"] += max(0, r.Span.DurMS-r.Span.Server.DurationMS)
			layerSelf(r.Span.Server, t.self)
		}
	}
	return t
}

// perCount is a layer's mean self time per count, in ms.
func (t layerTable) perCount(names ...string) float64 {
	s := 0.0
	for _, n := range names {
		s += t.self[n]
	}
	return ratio(s, float64(t.counts))
}

func (t layerTable) print(w io.Writer, workload string, overhead float64) {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	fmt.Fprintf(w, "per-layer self time, %s workload (%d traced counts, %.1f ms count wall time; trace overhead ratio %.3f)\n",
		workload, t.counts, t.wallMS, overhead)
	fmt.Fprintf(w, "  %-18s %12s %12s %8s\n", "layer", "total ms", "ms/count", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %12.3f %12.4f %7.2f%%\n", n, t.self[n], t.perCount(n), 100*ratio(t.self[n], t.wallMS))
	}
}

// perLayer computes the per-layer metrics from an untraced pass u and a
// traced pass tr of the same sequence.
func perLayer(u, tr *Pass) map[string]float64 {
	lt := layers(tr)
	m := map[string]float64{
		"service.http_ms":             lt.perCount("http"),
		"service.admission_wait_ms":   lt.perCount("admission.wait"),
		"service.prepare_ms":          lt.perCount("prepare"),
		"lsample.execute_self_ms":     lt.perCount("execute", "execute.groups"),
		"lsample.catalog_ms":          lt.perCount("catalog"),
		"shard.drive_ms":              lt.perCount("shard.drive"),
		"shard.census_ms":             lt.perCount("shard.census"),
		"shard.attempt_ms":            lt.perCount("shard.attempt"),
		"engine.enumerate_ms":         lt.perCount("enumerate"),
		"engine.features_ms":          lt.perCount("features"),
		"predicate.build_ms":          lt.perCount("predicate.build"),
		"learn.learn_ms":              lt.perCount("learn"),
		"stratify.design_ms":          lt.perCount("design"),
		"core.sample_ms":              lt.perCount("sample"),
		"obs.trace_overhead_ratio":    ratio(median(tr.countLat("")), median(u.countLat(""))),
		"client.lag_p99_ms":           quantile(u.LagMS, 0.99),
		"count_p90_ms":                quantile(u.countLat(""), 0.9),
		"count_p99_ms":                quantile(u.countLat(""), 0.99),
		"fresh_count_p50_ms":          quantile(u.countLat("fresh"), 0.5),
		"wal.bytes_per_ingested_byte": ratio(float64(u.WALGrowth), float64(u.DeltaBytes)),
	}
	hits := float64(u.Stats1.Metrics.CacheHits - u.Stats0.Metrics.CacheHits)
	misses := float64(u.Stats1.Metrics.CacheMisses - u.Stats0.Metrics.CacheMisses)
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)

	var counts, uncached, compiled, catalogServed, zeroEval float64
	var evals, predMS float64
	var ingestMS, ingestSrv, ingestHTTP []float64
	slo := 0.0
	for _, r := range u.Recs {
		if r.Op.Req == nil {
			if r.Ingest != nil {
				ingestMS = append(ingestMS, r.Span.DurMS)
				ingestSrv = append(ingestSrv, r.Ingest.DurationMS)
				ingestHTTP = append(ingestHTTP, max(0, r.Span.DurMS-r.Ingest.DurationMS))
			}
			continue
		}
		counts++
		if r.Err != nil || r.Span.LatMS > sloMS {
			slo++
		}
		c := r.Count
		if c == nil || c.Cached {
			continue
		}
		uncached++
		evals += float64(c.Evals)
		predMS += c.PredicateMS
		if c.Compiled {
			compiled++
		}
		if c.Reuse == "direct" || c.Reuse == "extension" {
			catalogServed++
			if c.Evals == 0 {
				zeroEval++
			}
		}
	}
	m["predicate.label_ms"] = ratio(predMS, counts)
	m["predicate.evals_per_count"] = ratio(evals, counts)
	m["predicate.ns_per_eval"] = ratio(predMS*1e6, evals)
	m["predicate.compiled_ratio"] = ratio(compiled, uncached)
	m["lsample.catalog_zero_eval_ratio"] = ratio(zeroEval, catalogServed)
	m["slo_miss_ratio"] = ratio(slo, counts)
	m["ingest_p50_ms"] = median(ingestMS)
	m["live.ingest_server_ms"] = median(ingestSrv)
	m["live.ingest_http_ms"] = median(ingestHTTP)

	a, f := u.failures()
	m["fail_ratio"] = ratio(float64(f), float64(a))
	m["rel_err_p50"], m["ci_width_rel_p50"], m["ci_undercoverage"] = accuracy(u)
	return m
}
