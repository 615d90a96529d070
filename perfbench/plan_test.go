package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestRequestLogDeterministic(t *testing.T) {
	for _, w := range []string{"adhoc", "dashboard", "ingest"} {
		a, err := RequestLog(w, 1, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RequestLog(w, 1, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request logs", w)
		}
		c, err := RequestLog(w, 2, 500)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request log", w)
		}
	}
}

// TestPlannedAnswersInRange checks the generated requests against the
// workload contract: every true count is at least 5% of |O|, and the adhoc
// mix holds its shares in every block.
func TestPlannedAnswersInRange(t *testing.T) {
	d := GenData(9, nD, nE, nR, nKeys)
	tr := NewTruth(d)
	srs, sharded := 0, 0
	n := 10 * len(adhocBlock)
	for i := range n {
		op := adhocOp(9, tr, i)
		if 20*op.Truth < op.Objects {
			t.Errorf("request %d: %s true count %d below 5%% of %d", i, op.Query, op.Truth, op.Objects)
		}
		if op.Req.Method == "srs" {
			srs++
		}
		if op.Req.Shards > 0 {
			sharded++
		}
	}
	if 4*srs != n || 4*sharded != n {
		t.Errorf("srs %d and sharded %d of %d requests, want a quarter each", srs, sharded, n)
	}
	g := newDashGen(9, tr)
	for _, round := range g.warmup() {
		for _, op := range round {
			if 20*op.Truth < op.Objects {
				t.Errorf("dashboard %s true count %d below 5%% of %d", op.Query, op.Truth, op.Objects)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// program's in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
