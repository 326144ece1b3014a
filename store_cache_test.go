package htlvideo

// Tests for the query-compilation and caching layer: plan-cache identity and
// counters, result-cache hits, generation-based invalidation, singleflight
// deduplication under concurrency, and byte-identical cached vs uncached
// results across a realistic query suite.

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/casablanca"
)

// TestCompileSharesPlans: compiling the same query twice — or textual
// variants of one formula — yields one CompiledQuery through the plan cache.
func TestCompileSharesPlans(t *testing.T) {
	s := resilienceStore(t, 1)
	cq1, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	cq2, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if cq1 != cq2 {
		t.Fatal("identical query text compiled twice")
	}
	// A textual variant parses to the same formula and converges on the same
	// compiled query through the canonical key.
	cq3, err := s.Compile("(M1 until M2)")
	if err != nil {
		t.Fatal(err)
	}
	if cq3 != cq1 {
		t.Fatal("textual variant did not share the compiled plan")
	}
	if cq1.Key() != cq1.Formula().String() {
		t.Fatalf("Key = %q, want the canonical formula text", cq1.Key())
	}
	pc := s.Stats().PlanCache
	if pc.Hits != 1 || pc.Misses != 2 {
		t.Fatalf("plan cache = %+v, want 1 hit (exact text), 2 misses", pc)
	}
	// Parse errors are not cached.
	if _, err := s.Compile("((("); err == nil {
		t.Fatal("malformed query compiled")
	}
	if got := s.Stats().PlanCache; got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("plan cache moved on a parse error: %+v", got)
	}
}

// TestPlanCacheCountersOnQuery: Store.Query goes through the plan cache
// transparently — a repeated query skips the parse.
func TestPlanCacheCountersOnQuery(t *testing.T) {
	s := resilienceStore(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := s.Query("M1 until M2"); err != nil {
			t.Fatal(err)
		}
	}
	pc := s.Stats().PlanCache
	if pc.Misses != 1 || pc.Hits != 2 {
		t.Fatalf("plan cache = %+v, want 1 miss then 2 hits", pc)
	}
	if pc.Size == 0 {
		t.Fatal("plan cache size gauge did not move")
	}
	// A compiled query evaluates like the string form.
	cq, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cq.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVideo) != 2 {
		t.Fatalf("PerVideo = %d videos, want 2", len(res.PerVideo))
	}
}

// TestResultCacheHitInvalidationOnAdd: with the result cache on, a repeated
// query is served without evaluating any video; adding a video bumps the
// store generation and forces re-evaluation.
func TestResultCacheHitInvalidationOnAdd(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})

	r1, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d, want 3", got)
	}
	r2, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("cache hit did not return the shared result")
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d after a cache hit, want still 3", got)
	}
	rc := s.Stats().ResultCache
	if rc.Misses != 1 || rc.Hits != 1 || rc.Size != 1 {
		t.Fatalf("result cache = %+v, want 1 miss, 1 hit, size 1", rc)
	}

	// Different options are different cache keys.
	if _, err := s.Query("M1 until M2", WithUntilThreshold(0.9)); err != nil {
		t.Fatal(err)
	}
	if rc := s.Stats().ResultCache; rc.Misses != 2 {
		t.Fatalf("option variant did not miss: %+v", rc)
	}

	// Adding a video invalidates by generation: the same query re-evaluates
	// and covers the new video.
	v := NewVideo(4, "clip 4", map[string]int{"shot": 2})
	v.Root.AppendChild(Seg().Attr("M1", Int(1)).Build())
	v.Root.AppendChild(Seg().Attr("M2", Int(1)).Build())
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.PerVideo) != 4 {
		t.Fatalf("after Add: PerVideo = %d videos, want 4", len(r3.PerVideo))
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3+3+4 {
		t.Fatalf("VideosEvaluated = %d, want 10 (3 cold + 3 variant + 4 after Add)", got)
	}
}

// TestResultCachePurgedOnAdd: a generation bump — an in-memory Add or a
// durable store's WAL-first Add — empties the result cache, so no stale
// entry holds capacity; the repeated query then misses once and hits again.
func TestResultCachePurgedOnAdd(t *testing.T) {
	durable, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	for id := 1; id <= 2; id++ {
		if err := durable.Add(guardClip(id)); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range map[string]*Store{"memory": resilienceStore(t, 2), "durable": durable} {
		t.Run(name, func(t *testing.T) {
			s.EnableResultCache(ResultCacheConfig{Capacity: 16})
			for _, q := range []string{"M1", "M1 until M2"} {
				if _, err := s.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Stats().ResultCache.Size; got != 2 {
				t.Fatalf("size = %d before Add, want 2", got)
			}
			if err := s.Add(guardClip(9)); err != nil {
				t.Fatal(err)
			}
			rc := s.results.Load()
			if got := s.Stats().ResultCache.Size; got != 0 || rc.lru.Len() != 0 || rc.lru.Weight() != 0 {
				t.Fatalf("after Add: size gauge %d, entries %d, weight %d; want an empty cache",
					got, rc.lru.Len(), rc.lru.Weight())
			}
			before := s.Stats().ResultCache
			for i := 0; i < 2; i++ {
				if _, err := s.Query("M1"); err != nil {
					t.Fatal(err)
				}
			}
			after := s.Stats().ResultCache
			if after.Misses-before.Misses != 1 || after.Hits-before.Hits != 1 {
				t.Fatalf("repeat after Add: %d misses, %d hits; want 1 and 1",
					after.Misses-before.Misses, after.Hits-before.Hits)
			}
		})
	}
}

// TestResultCacheDropsStaleGeneration: a result whose evaluation began before
// a generation bump is not inserted after the bump's purge.
func TestResultCacheDropsStaleGeneration(t *testing.T) {
	s := resilienceStore(t, 1)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	rc := s.results.Load()
	gen := s.gen.Load()
	_, fl, leader := rc.lookup("k")
	if !leader {
		t.Fatal("a cold lookup did not lead its flight")
	}
	if err := s.Add(guardClip(2)); err != nil {
		t.Fatal(err)
	}
	rc.finish("k", gen, fl, &Results{}, nil, true)
	if rc.lru.Len() != 0 {
		t.Fatal("a result from an older generation was cached after the purge")
	}
}

// TestResultCacheWeighsPerVideoLists: an entry weighs its non-empty per-video
// lists (at least 1), so the capacity bounds cached lists, not queries.
func TestResultCacheWeighsPerVideoLists(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 4})
	rc := s.results.Load()
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	if got := rc.lru.Weight(); got != 3 {
		t.Fatalf("weight = %d after a 3-video result, want 3", got)
	}
	if _, err := s.Query("M3"); err != nil { // matches nothing: weighs 1
		t.Fatal(err)
	}
	if got, n := rc.lru.Weight(), rc.lru.Len(); got != 4 || n != 2 {
		t.Fatalf("weight %d over %d entries, want 4 over 2", got, n)
	}
	if _, err := s.Query("M2"); err != nil { // 3 more lists: M1's entry goes
		t.Fatal(err)
	}
	if got, n := rc.lru.Weight(), rc.lru.Len(); got != 4 || n != 2 {
		t.Fatalf("weight %d over %d entries, want 4 over 2", got, n)
	}
	if ev := s.Stats().ResultCache.Evicted; ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
}

// TestResultCacheSingleflight: N concurrent identical queries against a cold
// cache collapse onto one evaluation; everyone gets an answer, exactly one
// paid for it. Meaningful under -race.
func TestResultCacheSingleflight(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query("M1 until M2")
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.PerVideo) != 3 {
				t.Errorf("PerVideo = %d videos, want 3", len(res.PerVideo))
			}
		}()
	}
	wg.Wait()
	rc := s.Stats().ResultCache
	if rc.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 evaluation", rc.Misses)
	}
	if rc.Hits+rc.Deduped != n-1 {
		t.Fatalf("Hits (%d) + Deduped (%d) = %d, want %d", rc.Hits, rc.Deduped, rc.Hits+rc.Deduped, n-1)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d, want 3 (one evaluation total)", got)
	}
}

// TestWithoutCacheBypasses: WithoutCache evaluates from scratch and leaves
// both caches untouched.
func TestWithoutCacheBypasses(t *testing.T) {
	s := resilienceStore(t, 2)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	for i := 0; i < 2; i++ {
		if _, err := s.Query("M1 until M2", WithoutCache()); err != nil {
			t.Fatal(err)
		}
	}
	if pc := s.Stats().PlanCache; pc.Hits != 0 || pc.Misses != 0 {
		t.Fatalf("plan cache touched: %+v", pc)
	}
	if rc := s.Stats().ResultCache; rc.Hits != 0 || rc.Misses != 0 || rc.Size != 0 {
		t.Fatalf("result cache touched: %+v", rc)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 4 {
		t.Fatalf("VideosEvaluated = %d, want 4 (both runs evaluated)", got)
	}
}

// TestResultCacheTTL: entries expire by age.
func TestResultCacheTTL(t *testing.T) {
	s := resilienceStore(t, 1)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16, TTL: time.Millisecond})
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	rc := s.Stats().ResultCache
	if rc.Misses != 2 || rc.Hits != 0 {
		t.Fatalf("result cache = %+v, want 2 misses (entry expired)", rc)
	}
}

// resultFingerprint reduces a Results to its observable content for
// byte-identity comparison.
func resultFingerprint(t *testing.T, res *Results) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Class    Class
		PerVideo map[int]SimList
		Errors   int
	}{res.Class, res.PerVideo, len(res.Errors)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCachedResultsIdentical: across a realistic suite — the paper's
// Casablanca queries plus temporal, duplicated-subtree, quantified, level-
// modal and general (reference-engine fallback) forms — the cached answer is
// byte-identical to a from-scratch evaluation on an identical store.
func TestCachedResultsIdentical(t *testing.T) {
	type tc struct {
		name  string
		store func(testing.TB) *Store
		query string
		opts  []QueryOption
	}
	newCasablanca := func(t testing.TB) *Store {
		s := NewStore(casablanca.Taxonomy(), casablanca.Weights())
		if err := s.Add(casablanca.Video()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	newResilience := func(t testing.TB) *Store { return resilienceStore(t, 3) }
	cases := []tc{
		{"moving-train", newCasablanca, casablanca.MovingTrainQuery, nil},
		{"man-woman", newCasablanca, casablanca.ManWomanQuery, nil},
		{"query1", newCasablanca, casablanca.Query1, nil},
		{"until", newResilience, "M1 until M2", nil},
		{"dup-subtree", newResilience, "(M1 until M2) and (M1 until M2)", nil},
		{"quantified-until", newResilience, "exists x . present(x) until M1", nil},
		{"at-level", newResilience, "at-shot-level(M1)", []QueryOption{AtRoot()}},
		{"general-fallback", newResilience, "not eventually M2", nil},
		{"and-min", newResilience, "M1 and M2", []QueryOption{WithAndSemantics(AndMin)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cold := c.store(t)
			want, err := cold.Query(c.query, append([]QueryOption{WithoutCache()}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			warm := c.store(t)
			warm.EnableResultCache(ResultCacheConfig{Capacity: 8})
			if _, err := warm.Query(c.query, c.opts...); err != nil {
				t.Fatal(err)
			}
			got, err := warm.Query(c.query, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats().ResultCache.Hits == 0 {
				t.Fatal("second query did not hit the result cache")
			}
			if gf, wf := resultFingerprint(t, got), resultFingerprint(t, want); gf != wf {
				t.Fatalf("cached result differs from uncached:\n cached: %s\n fresh:  %s", gf, wf)
			}
		})
	}
}
