package shard

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/server"
)

// TestQueryStatsMergeMatchesUnsharded replays the same workload through a
// three-shard coordinator and an unsharded server, then checks the
// coordinator's merged /debug/queries against the single store's. The serving
// layer runs one store query per HTTP request, so the unsharded server
// records exactly N calls per plan key for N requests, and the coordinator —
// which sends every request to every shard — merges exactly nShards × N
// calls (and latency-histogram populations). Each video lives on exactly one
// shard, so the merged videos evaluated must equal the unsharded store's.
// Hedging is off so no shard is ever queried twice; k is larger than the
// corpus so top-k early termination never skips a video.
func TestQueryStatsMergeMatchesUnsharded(t *testing.T) {
	doc := fixtureDoc(9)
	const nShards = 3
	urls := startShardServers(t, doc, nShards)
	coord := New(urls, WithHedgeDelay(0), WithRandSeed(1))
	defer coord.Close()
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	full, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(full, server.WithRandSeed(1)).Handler())
	defer single.Close()

	// Requests per plan key: whitespace variants fold into one key.
	requests := map[string]uint64{"M1": 3, "M1 until M2": 3, "eventually M2": 1}
	workload := []string{
		"q=M1&k=100", "q=M1&k=100", "q=M1&k=100",
		"q=M1+until+M2&k=100", "q=M1+until+M2&k=100",
		"q=eventually+M2&k=100",
		"q=M1++until++M2&k=100", // extra whitespace folds to the same plan key
	}
	for _, q := range workload {
		if code := getDoc(t, ct.URL+"/query?"+q, nil); code != http.StatusOK {
			t.Fatalf("coordinator %s: status %d", q, code)
		}
		if code := getDoc(t, single.URL+"/query?"+q, nil); code != http.StatusOK {
			t.Fatalf("single %s: status %d", q, code)
		}
	}

	var merged queryStatsDoc
	if code := getDoc(t, ct.URL+"/debug/queries", &merged); code != http.StatusOK {
		t.Fatalf("coordinator /debug/queries: status %d", code)
	}
	var want querystats.Snapshot
	if code := getDoc(t, single.URL+"/debug/queries", &want); code != http.StatusOK {
		t.Fatalf("single /debug/queries: status %d", code)
	}

	if len(merged.Shards) != nShards {
		t.Fatalf("shard statuses = %d, want %d", len(merged.Shards), nShards)
	}
	for _, ss := range merged.Shards {
		if ss.Error != "" || ss.Entries == 0 {
			t.Fatalf("shard %s contributed nothing: %+v", ss.Shard, ss)
		}
	}

	wantByKey := map[string]querystats.EntrySnapshot{}
	for _, e := range want.Entries {
		wantByKey[e.PlanKey] = e
	}
	if len(wantByKey) != len(requests) {
		t.Fatalf("unsharded plan keys = %d, want %d (whitespace variants must fold)", len(wantByKey), len(requests))
	}
	var total uint64
	for key, we := range wantByKey {
		n, ok := requests[key]
		if !ok {
			t.Fatalf("unexpected unsharded plan key %q", key)
		}
		if we.Calls != n {
			t.Fatalf("%q: unsharded calls = %d, want one per request (%d)", key, we.Calls, n)
		}
		total += n
	}
	if want.Totals.Calls != total {
		t.Fatalf("unsharded totals = %d, want %d", want.Totals.Calls, total)
	}
	gotByKey := map[string]querystats.EntrySnapshot{}
	for _, e := range merged.Entries {
		gotByKey[e.PlanKey] = e
	}
	if len(gotByKey) != len(wantByKey) {
		t.Fatalf("merged plan keys = %d, want %d", len(gotByKey), len(wantByKey))
	}
	for key, we := range wantByKey {
		ge, ok := gotByKey[key]
		if !ok {
			t.Fatalf("plan key %q missing from merged stats", key)
		}
		if ge.Calls != nShards*we.Calls {
			t.Fatalf("%q: merged calls = %d, want %d shards × %d", key, ge.Calls, nShards, we.Calls)
		}
		if ge.VideosEvaluated != we.VideosEvaluated {
			t.Fatalf("%q: merged videos evaluated = %d, want %d", key, ge.VideosEvaluated, we.VideosEvaluated)
		}
		if ge.ErrorCount() != 0 {
			t.Fatalf("%q: merged errors = %v on a healthy fleet", key, ge.Errors)
		}
		if ge.Class != we.Class {
			t.Fatalf("%q: class %q != %q", key, ge.Class, we.Class)
		}
		if ge.Latency.Count != nShards*we.Latency.Count {
			t.Fatalf("%q: merged latency count = %d, want %d shards × %d", key, ge.Latency.Count, nShards, we.Latency.Count)
		}
	}
	if merged.Totals.Calls != nShards*want.Totals.Calls {
		t.Fatalf("merged totals = %d, want %d shards × %d", merged.Totals.Calls, nShards, want.Totals.Calls)
	}
	if merged.Evicted != 0 {
		t.Fatalf("merged evicted = %d, want 0", merged.Evicted)
	}
}
