package main

// The traced run. It repeats the serving workload's open-loop phase
// untraced, reading every layer's public counters around it, then
// continues the stream at the same rate with ?trace=1 (the two p50s give
// obs.trace_overhead_frac), and then replays the stream down a ladder of
// public entry points on fresh, identically warmed instances, timing each
// rung from this file:
//
//	A  coordinator over HTTP          (stack of N shards)
//	B  each shard server over HTTP    (fresh servers, no coordinator)
//	C  Store.QueryCtx per shard store (fresh stores, same result cache)
//	D  core.EvalPlanCtx per video     (fresh picture systems)
//	E  picture.System.EvalAtomic per video and atomic unit
//
// Every rung sees the same requests in the same order, so each rung's
// caches are in the state the rung above left its own copy in.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"htlvideo"
	"htlvideo/internal/core"
	"htlvideo/internal/picture"
	"htlvideo/internal/refeval"
)

// counters is one snapshot of every layer's public counters.
type counters struct {
	shardQueries, shardRequests, shardHedges float64
	serverRequests, serverShed               float64
	storeQueries                             float64
	resHits, resMisses, resDeduped, resEvict float64
	planHits, planMisses, memoHits, reorders float64
	picHits, picMisses, picDeduped, picSize  float64
	topkSkipped                              float64
	mallocs, allocBytes                      float64
	gcCPU, totalCPU                          float64
}

func snapshot(st *stack) counters {
	var c counters
	cc := st.coord.Metrics().Snapshot().Counters
	c.shardQueries = float64(cc["shard.queries"])
	c.shardRequests = float64(cc["shard.requests"])
	c.shardHedges = float64(cc["shard.hedges"])
	for _, srv := range st.servers {
		sc := srv.Metrics().Snapshot().Counters
		c.serverRequests += float64(sc["server.requests.total"])
		c.serverShed += float64(sc["server.requests.shed"])
		s := srv.Store().Stats()
		c.storeQueries += float64(s.Queries.Total)
		c.resHits += float64(s.ResultCache.Hits)
		c.resMisses += float64(s.ResultCache.Misses)
		c.resDeduped += float64(s.ResultCache.Deduped)
		c.resEvict += float64(s.ResultCache.Evicted)
		c.planHits += float64(s.PlanCache.Hits)
		c.planMisses += float64(s.PlanCache.Misses)
		c.memoHits += float64(s.PlanCache.MemoHits)
		c.reorders += float64(s.PlanCache.Reorders)
		c.picHits += float64(s.Cache.Hits)
		c.picMisses += float64(s.Cache.Misses)
		c.picDeduped += float64(s.Cache.Deduped)
		c.picSize += float64(s.Cache.Size)
		c.topkSkipped += float64(s.TopK.EntriesSkipped)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes = float64(m.Mallocs), float64(m.TotalAlloc)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return c
}

// ratio is a/b, or 0 when b is 0 (the counter saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers reports the counter-derived per-layer metrics over the
// traced phase (from a to b, requests client requests).
func counterLayers(a, b counters, requests int, rep *report) {
	d := func(f func(c counters) float64) float64 { return f(b) - f(a) }
	n := float64(requests)
	rep.set("shard.requests_per_query", ratio(d(func(c counters) float64 { return c.shardRequests }), d(func(c counters) float64 { return c.shardQueries })), "count")
	rep.set("shard.hedge_frac", ratio(d(func(c counters) float64 { return c.shardHedges }), d(func(c counters) float64 { return c.shardRequests })), "ratio")
	serverReqs := d(func(c counters) float64 { return c.serverRequests })
	rep.set("server.store_calls_per_req", ratio(d(func(c counters) float64 { return c.storeQueries }), serverReqs), "count")
	rep.set("server.shed_frac", ratio(d(func(c counters) float64 { return c.serverShed }), serverReqs), "ratio")
	resHit := d(func(c counters) float64 { return c.resHits + c.resDeduped })
	rep.set("store.result_cache_hit_ratio", ratio(resHit, resHit+d(func(c counters) float64 { return c.resMisses })), "ratio")
	rep.set("store.result_cache_evictions_per_req", ratio(d(func(c counters) float64 { return c.resEvict }), n), "count")
	planHit := d(func(c counters) float64 { return c.planHits })
	rep.set("store.plan_cache_hit_ratio", ratio(planHit, planHit+d(func(c counters) float64 { return c.planMisses })), "ratio")
	picHit := d(func(c counters) float64 { return c.picHits })
	rep.set("store.picture_cache_hit_ratio", ratio(picHit, picHit+d(func(c counters) float64 { return c.picMisses + c.picDeduped })), "ratio")
	rep.set("store.picture_cache_size", b.picSize, "count")
	rep.set("core.memo_hits_per_query", ratio(d(func(c counters) float64 { return c.memoHits }), n), "count")
	rep.set("core.topk_entries_skipped_per_query", ratio(d(func(c counters) float64 { return c.topkSkipped }), n), "count")
	rep.set("core.reorders", d(func(c counters) float64 { return c.reorders }), "count")
	rep.set("runtime.allocs_per_query", ratio(d(func(c counters) float64 { return c.mallocs }), n), "count")
	rep.set("runtime.alloc_kb_per_query", ratio(d(func(c counters) float64 { return c.allocBytes }), n)/1024, "KiB")
	rep.set("runtime.gc_cpu_frac", ratio(d(func(c counters) float64 { return c.gcCPU }), d(func(c counters) float64 { return c.totalCPU })), "ratio")
}

// runServingTraced is the traced run of a serving workload.
func runServingTraced(sp *servingSpec, cfg runConfig, rep *report) error {
	dir := ""
	if sp.ingest != nil {
		dir = filepath.Join(cfg.workdir, "data-traced")
	}
	st, err := setUp(sp, dir)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			_ = st.remove()
		}
	}()
	clients := runtime.NumCPU()
	cl := newHTTPClient(st.coordLn.url, clients)
	defer cl.close()
	leadIn(sp, cl, clients)

	// The closed-loop share of the run is split between the traced phase
	// and the ladder.
	tail := (1 - openShare) / 2 * cfg.seconds
	tracedN := int(sp.rate * tail)
	var wr writerResult
	var wwg sync.WaitGroup
	if sp.ingest != nil {
		n := int(sp.ingest.rate * (openShare*cfg.seconds + tail))
		docs := sp.ingest.videos[:n]
		videos := videosOf(htlvideo.StoreDoc{Taxonomy: taxonomy(), Videos: docs})
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			runWriter(st.servers[0].Store(), videos, docs, sp.ingest.rate, &wr)
		}()
	}
	before := snapshot(st)
	untraced := runOpen(cl, sp.stream[:sp.openN], sp.rate, clients, false)
	after := snapshot(st)
	traced := runOpen(cl, sp.stream[sp.openN:sp.openN+tracedN], sp.rate, clients, true)
	wwg.Wait()
	counterLayers(before, after, len(untraced.outcomes), rep)

	lat := latencies(untraced.outcomes)
	p50u := median(lat)
	p50t := median(latencies(traced.outcomes))
	rep.set("obs.trace_overhead_frac", p50t/p50u-1, "ratio")
	p99, err := percentile(lat, 0.99)
	if err != nil {
		rep.wrong = append(rep.wrong, fmt.Sprintf("query_p99_ms: %v", err))
	}
	rep.set("query_p99_ms", p99, "ms")
	var lags []float64
	for _, o := range untraced.outcomes {
		lags = append(lags, ms(o.lag()))
	}
	lag, err := percentile(lags, 0.99)
	if err != nil {
		rep.wrong = append(rep.wrong, fmt.Sprintf("loadgen.lag_p99_ms: %v", err))
	}
	rep.set("loadgen.lag_p99_ms", lag, "ms")

	// Correctness of both halves, as in the untraced run.
	full, visibleFor := oracleCorpus(sp, &wr)
	orc, err := newOracle(full)
	if err != nil {
		return err
	}
	failed := 0
	for _, ph := range []phaseResult{untraced, traced} {
		for _, err := range orc.verdicts(ph, visibleFor, rep) {
			if err != nil {
				failed++
			}
		}
	}
	sent := len(untraced.outcomes) + len(traced.outcomes)
	rep.attempted += sent
	rep.failed += failed
	rep.set("query_failed_frac", float64(failed)/float64(sent), "ratio")

	err = st.close()
	st = nil
	if err != nil {
		return err
	}
	if sp.ingest != nil {
		checkReopen(dir, &wr, sp, orc, rep)
		walMetrics(dir, &wr, rep)
		wr.count(rep)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	workloadProperties(sp, rep)
	return runLadder(sp, time.Duration(tail*float64(time.Second)), rep)
}

// workloadProperties reports the open-loop stream's share of requests whose
// canonical formula repeats an earlier one, and the share of (video, level,
// atom) evaluations that repeat an earlier one over the base corpus: the
// traffic a plan/result cache or an atom cache could serve.
func workloadProperties(sp *servingSpec, rep *report) {
	seenF := map[string]bool{}
	seenA := map[string]bool{}
	repeatF, repeatA, atomEvals := 0, 0, 0
	for _, q := range sp.stream[:sp.openN] {
		f, err := htlvideo.Parse(q)
		if err != nil {
			continue
		}
		if key := f.String(); seenF[key] {
			repeatF++
		} else {
			seenF[key] = true
		}
		// Every base video is eligible for every request, so the video
		// factor multiplies both counts alike.
		for _, n := range atomicUnits(core.CompilePlan(f)) {
			atomEvals++
			if seenA[n.Key] {
				repeatA++
			} else {
				seenA[n.Key] = true
			}
		}
	}
	ff := float64(repeatF) / float64(sp.openN)
	af := ratio(float64(repeatA), float64(atomEvals))
	rep.set("workload.formula_repeat_frac", ff, "ratio")
	rep.set("picture.atom_repeat_frac", af, "ratio")
	rep.note("workload properties: formula repeat share %.3f, atom repeat share %.3f (%d requests)", ff, af, sp.openN)
}

// atomicUnits lists a plan's maximal non-temporal nodes — the units the
// picture system scores whole — once each.
func atomicUnits(p *core.Plan) []*core.PNode {
	var out []*core.PNode
	seen := map[*core.PNode]bool{}
	var walk func(n *core.PNode)
	walk = func(n *core.PNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.NonTemporal {
			out = append(out, n)
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	return out
}

// runLadder replays the open-loop stream down the ladder for up to d.
func runLadder(sp *servingSpec, d time.Duration, rep *report) error {
	docs, err := shardDocs(sp)
	if err != nil {
		return err
	}
	// Rung A: a fresh stack. Rung B: fresh shard servers of their own.
	stA, err := newStack(docs, "")
	if err != nil {
		return err
	}
	defer stA.remove()
	stB, err := newStack(docs, "")
	if err != nil {
		return err
	}
	defer stB.remove()
	clA := newHTTPClient(stA.coordLn.url, 1)
	defer clA.close()
	clB := make([]*httpClient, len(stB.shardLns))
	for i, ln := range stB.shardLns {
		clB[i] = newHTTPClient(ln.url, 1)
		defer clB[i].close()
	}
	// Rung C: fresh stores with the servers' result cache.
	storesC := make([]*htlvideo.Store, len(docs))
	for i, doc := range docs {
		if storesC[i], err = doc.Build(); err != nil {
			return err
		}
		storesC[i].EnableResultCache(htlvideo.ResultCacheConfig{Capacity: 1024, TTL: time.Minute})
	}
	// Rungs D and E: fresh picture systems, one per video at level 2.
	var systems []*picture.System
	var builds []float64
	tax := buildTaxonomy()
	for _, v := range videosOf(sp.corpus) {
		t := time.Now()
		sys, err := picture.NewSystemCtx(context.Background(), v, 2, tax, htlvideo.DefaultWeights())
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t)))
		systems = append(systems, sys)
	}
	rep.set("picture.build_ms", median(builds), "ms")

	ctx := context.Background()
	storeQuery := func(s *htlvideo.Store, q string, opts ...htlvideo.QueryOption) (time.Duration, error) {
		t := time.Now()
		res, err := s.QueryCtx(ctx, q, opts...)
		if err != nil {
			return 0, err
		}
		res.TopKCtx(ctx, topK)
		return time.Since(t), nil
	}
	// Warm every rung that has caches exactly as set-up warmed the stack.
	for _, q := range sp.warm {
		if r := clA.query(q, false); r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("ladder warm-up: status %d: %v", r.status, r.err)
		}
		for _, c := range clB {
			if r := c.query(q, false); r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("ladder warm-up: status %d: %v", r.status, r.err)
			}
		}
		for _, s := range storesC {
			if _, err := storeQuery(s, q); err != nil {
				return err
			}
		}
	}

	var shardSelf, serverSelf, cold, warm, parse, atomic, combine []float64
	start := time.Now()
	n := 0
	for _, q := range sp.stream[:sp.openN] {
		if time.Since(start) > d && n >= 20 {
			break
		}
		n++
		// A
		t := time.Now()
		if r := clA.query(q, false); r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("ladder rung A: status %d: %v", r.status, r.err)
		}
		lA := ms(time.Since(t))
		// B: every shard at once, as the coordinator fans out.
		lB := make([]float64, len(clB))
		errB := make([]error, len(clB))
		var wg sync.WaitGroup
		for i, c := range clB {
			wg.Add(1)
			go func(i int, c *httpClient) {
				defer wg.Done()
				t := time.Now()
				r := c.query(q, false)
				lB[i] = ms(time.Since(t))
				if r.err != nil || r.status != http.StatusOK {
					errB[i] = fmt.Errorf("ladder rung B: status %d: %v", r.status, r.err)
				}
			}(i, c)
		}
		wg.Wait()
		if err := errors.Join(errB...); err != nil {
			return err
		}
		slowest := 0.0
		for _, l := range lB {
			slowest = max(slowest, l)
		}
		shardSelf = append(shardSelf, lA-slowest)
		// C
		coldSum := 0.0
		for i, s := range storesC {
			lC, err := storeQuery(s, q)
			if err != nil {
				return err
			}
			serverSelf = append(serverSelf, lB[i]-ms(lC))
			lW, err := storeQuery(s, q)
			if err != nil {
				return err
			}
			warm = append(warm, float64(lW)/float64(time.Microsecond))
			lCold, err := storeQuery(s, q, htlvideo.WithoutCache())
			if err != nil {
				return err
			}
			coldSum += ms(lCold)
		}
		cold = append(cold, coldSum)
		// D and E
		t = time.Now()
		f, err := htlvideo.Parse(q)
		if err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t))/float64(time.Microsecond))
		plan := core.CompilePlan(f)
		units := atomicUnits(plan)
		evalSum, atomSum := 0.0, 0.0
		for _, sys := range systems {
			t := time.Now()
			if err := evalPlan(ctx, sys, plan); err != nil {
				return err
			}
			evalSum += ms(time.Since(t))
			for _, u := range units {
				t := time.Now()
				if _, err := sys.EvalAtomic(u.F); err != nil {
					return fmt.Errorf("ladder rung E: %q: %w", u.Key, err)
				}
				atomSum += ms(time.Since(t))
			}
		}
		atomic = append(atomic, atomSum)
		combine = append(combine, evalSum-atomSum)
	}
	rep.set("shard.self_ms", median(shardSelf), "ms")
	rep.set("server.self_ms", median(serverSelf), "ms")
	rep.set("store.query_cold_ms", median(cold), "ms")
	rep.set("store.query_warm_us", median(warm), "us")
	rep.set("htl.parse_us", median(parse), "us")
	rep.set("picture.atomic_ms", median(atomic), "ms")
	rep.set("picture.atomic_share", ratio(median(atomic), median(cold)), "ratio")
	rep.set("core.combine_ms", median(combine), "ms")
	rep.note("ladder: %d requests replayed down 5 rungs in %.2fs", n, time.Since(start).Seconds())
	return nil
}

// evalPlan evaluates a compiled plan over one video the way the store's
// auto engine does: the §3 list algorithms, falling back to the reference
// evaluator outside the conjunctive classes.
func evalPlan(ctx context.Context, sys *picture.System, plan *core.Plan) error {
	opts := core.DefaultOptions()
	_, err := core.EvalPlanCtx(ctx, sys, plan, opts)
	var notConj *core.ErrNotConjunctive
	if errors.As(err, &notConj) {
		_, err = refeval.New(sys, opts).ListPlanCtx(ctx, plan)
	}
	return err
}
