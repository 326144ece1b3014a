package server

// The guard path: /query is one store query whose worker pool runs each
// video behind its breaker and retry. Its ranking must match the store's own
// whole-store top-k, an open breaker must skip exactly its video, and a
// result with a skipped or failed video must never be cached.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/faultinject"
)

var guardFormulas = []string{
	"M1",
	"M1 until M2",
	"eventually M2",
	"M1 and M2",
	"exists x . present(x) and type(x) = 'man'",
}

// storeTop is the store's own uncached top-k over the videos in keep (all
// videos when keep is nil), in the /query document shape.
func storeTop(t *testing.T, st *htlvideo.Store, q string, k int, keep func(id int) bool) []RankedDoc {
	t.Helper()
	res, err := st.Query(q, htlvideo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if keep != nil {
		lists := map[int]htlvideo.SimList{}
		for id, l := range res.PerVideo {
			if keep(id) {
				lists[id] = l
			}
		}
		res = &htlvideo.Results{PerVideo: lists}
	}
	var out []RankedDoc
	for _, rk := range res.TopK(k) {
		out = append(out, RankedDoc{
			Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End,
			Sim: rk.Sim.Act, Frac: rk.Sim.Frac(),
		})
	}
	return out
}

func queryDoc(t *testing.T, base, q string, k int) QueryResponse {
	t.Helper()
	resp, err := http.Get(base + "/query?k=" + strconv.Itoa(k) + "&q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", q, resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTop compares rankings byte for byte through their JSON encoding.
func sameTop(t *testing.T, what string, got, want []RankedDoc) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

func TestGuardPathMatchesStoreTopK(t *testing.T) {
	st := chaosStore(t, 6)
	srv := New(st, WithRandSeed(1),
		WithResultCache(htlvideo.ResultCacheConfig{Capacity: 64}),
		WithBreaker(BreakerConfig{Window: 4, MinVolume: 1, FailureRate: 0.5, OpenFor: time.Hour, HalfOpenProbes: 1}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// All breakers closed: /query is the store's whole-store top-k, cold and
	// from the result cache alike.
	for _, q := range guardFormulas {
		for _, k := range []int{3, 100} {
			want := storeTop(t, st, q, k, nil)
			for pass := 0; pass < 2; pass++ {
				out := queryDoc(t, ts.URL, q, k)
				if out.Videos != 6 || out.Evaluated != 6 || len(out.Skipped)+len(out.Failed) != 0 {
					t.Fatalf("%s: videos %d evaluated %d skipped %v failed %v", q, out.Videos, out.Evaluated, out.Skipped, out.Failed)
				}
				sameTop(t, q, out.Top, want)
			}
		}
	}
	if got := st.Stats().ResultCache.Hits; got == 0 {
		t.Fatal("repeated requests never hit the result cache")
	}

	// Video 3's breaker forced open: it is skipped, the ranking is the
	// store's over the other five videos, and nothing is cached.
	// Fill its window with failures (it already holds the successes above).
	for i := 0; i < 4 && srv.breaker.Allow(3); i++ {
		srv.breaker.Report(3, true)
	}
	if srv.breaker.State(3) != StateOpen {
		t.Fatalf("breaker state = %v, want open", srv.breaker.State(3))
	}
	st.DisableResultCache()
	st.EnableResultCache(htlvideo.ResultCacheConfig{Capacity: 64})
	for _, q := range guardFormulas {
		out := queryDoc(t, ts.URL, q, 100)
		if len(out.Skipped) != 1 || out.Skipped[0] != (SkipDoc{Video: 3, Reason: "breaker open"}) {
			t.Fatalf("%s: skipped %v, want video 3 (breaker open)", q, out.Skipped)
		}
		if out.Videos != 6 || out.Evaluated != 5 || len(out.Failed) != 0 {
			t.Fatalf("%s: videos %d evaluated %d failed %v", q, out.Videos, out.Evaluated, out.Failed)
		}
		sameTop(t, q+" (video 3 skipped)", out.Top, storeTop(t, st, q, 100, func(id int) bool { return id != 3 }))
	}
	if got := st.Stats().ResultCache.Size; got != 0 {
		t.Fatalf("results with a skipped video were cached (size %d)", got)
	}
}

func TestGuardPathFailedVideoNotCached(t *testing.T) {
	st := chaosStore(t, 4)
	srv := New(st, WithRandSeed(1),
		WithResultCache(htlvideo.ResultCacheConfig{Capacity: 64}),
		WithRetry(RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindError,
	}))
	t.Cleanup(faultinject.Disarm)
	out := queryDoc(t, ts.URL, "M1", 100)
	if len(out.Failed) != 1 || out.Failed[0].Video != 2 || out.Failed[0].Timeout {
		t.Fatalf("failed = %+v, want video 2's build failure", out.Failed)
	}
	if out.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (the transient build failure retried once)", out.Retries)
	}
	if got := st.Stats().ResultCache.Size; got != 0 {
		t.Fatalf("a result with a failed video was cached (size %d)", got)
	}
	faultinject.Disarm()
	sameTop(t, "after recovery", queryDoc(t, ts.URL, "M1", 100).Top, storeTop(t, st, "M1", 100, nil))
	if got := st.Stats().ResultCache.Size; got != 1 {
		t.Fatalf("the healthy result was not cached (size %d)", got)
	}
}

// TestGuardPathDeadlineMidway: a deadline that expires mid-request still
// answers 200 with the videos that finished; every video it cut off is
// listed as failed with timeout set.
func TestGuardPathDeadlineMidway(t *testing.T) {
	st := chaosStore(t, 4)
	srv := New(st, WithRandSeed(1), WithParallelism(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Video 2's build blocks until cancellation; with one worker, video 1
	// finishes first and videos 3 and 4 wait behind video 2.
	faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindStall,
	}))
	t.Cleanup(faultinject.Disarm)
	resp, err := http.Get(ts.URL + "/query?timeout=100ms&q=M1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with the finished videos", resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Videos != 4 || out.Evaluated < 1 || out.Evaluated+len(out.Failed) != 4 || len(out.Skipped) != 0 {
		t.Fatalf("videos %d evaluated %d failed %+v skipped %+v", out.Videos, out.Evaluated, out.Failed, out.Skipped)
	}
	if len(out.Failed) == 0 || out.Failed[0].Video != 2 {
		t.Fatalf("failed = %+v, want video 2 first", out.Failed)
	}
	for _, f := range out.Failed {
		if !f.Timeout {
			t.Fatalf("failed video %d not marked timeout: %+v", f.Video, f)
		}
	}
	if srv.breaker.State(2) != StateClosed {
		t.Fatal("the request's own deadline counted against video 2's breaker")
	}
}
