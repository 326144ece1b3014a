package main

// Serving workloads: popular-shapes, adhoc-long and ingest-read drive the
// deployed stack over HTTP, open loop then closed loop, and check every
// response against an unsharded in-process store evaluated uncached.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"htlvideo"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

const topK = 10

// firstIngestID is the id of the first video an ingest writer adds.
const firstIngestID = 100001

// servingSpec is one serving workload's generated inputs and settings.
type servingSpec struct {
	corpus htlvideo.StoreDoc
	shards int
	// warm runs once through the stack during set-up to fill caches.
	warm []string
	// loadWarm runs open loop, unmeasured, between set-up and measuring.
	loadWarm []string
	// stream is the request sequence: the open-loop phase takes its first
	// openN entries, the closed-loop phase continues from there.
	stream []string
	openN  int
	rate   float64 // open-loop requests per second
	sloMS  float64 // latency limit for query_slo_frac
	// ingest, when non-nil, makes the single shard durable and runs a
	// writer beside the readers.
	ingest *ingestSpec
}

// ingestSpec is the writer of ingest-read.
type ingestSpec struct {
	videos []htlvideo.VideoDoc // added in order
	rate   float64             // Adds per second
}

// httpClient sends queries over at most conns connections.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string, conns int) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr}, base: base}
}

// reply is one recorded response.
type reply struct {
	status int
	body   []byte
	err    error
}

func (h *httpClient) query(q string, trace bool) reply {
	v := url.Values{}
	v.Set("q", q)
	v.Set("k", strconv.Itoa(topK))
	if trace {
		v.Set("trace", "1")
	}
	resp, err := h.c.Get(h.base + "/query?" + v.Encode())
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// shardDocs splits the corpus into the stack's shard documents.
func shardDocs(sp *servingSpec) ([]htlvideo.StoreDoc, error) {
	if sp.shards == 1 {
		return []htlvideo.StoreDoc{sp.corpus}, nil
	}
	return htlvideo.SplitDoc(sp.corpus, sp.shards)
}

// setUp builds the stack from the generated documents, starts every
// listener, preloads the durable directory and warms the caches.
func setUp(sp *servingSpec, dir string) (*stack, error) {
	docs, err := shardDocs(sp)
	if err != nil {
		return nil, err
	}
	st, err := newStack(docs, dir)
	if err != nil {
		return nil, err
	}
	cl := newHTTPClient(st.coordLn.url, 1)
	defer cl.close()
	for _, q := range sp.warm {
		if r := cl.query(q, false); r.err != nil || r.status != http.StatusOK {
			_ = st.remove()
			return nil, fmt.Errorf("warming %q: status %d: %v", q, r.status, r.err)
		}
	}
	return st, nil
}

// Set-up repeats at least minSetups times and, while the repetitions take
// less than setupBudget in all, up to maxSetups: a set-up of a few
// milliseconds needs more repetitions for a steady median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// setUpTimed sets the stack up repeatedly, keeping the last, and returns it
// with the median set-up time.
func setUpTimed(sp *servingSpec, workdir string) (*stack, float64, error) {
	var times []float64
	var st *stack
	began := time.Now()
	for r := 0; r < minSetups || (r < maxSetups && time.Since(began) < setupBudget); r++ {
		if st != nil {
			if err := st.remove(); err != nil {
				return nil, 0, err
			}
		}
		dir := ""
		if sp.ingest != nil {
			dir = filepath.Join(workdir, fmt.Sprintf("data-%d", r))
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if st, err = setUp(sp, dir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

// phaseResult is the requests, timings and replies of load phases.
type phaseResult struct {
	queries  []string
	outcomes []outcome
	replies  []reply
	wall     time.Duration
}

func (p *phaseResult) extend(q phaseResult) {
	p.queries = append(p.queries, q.queries...)
	p.outcomes = append(p.outcomes, q.outcomes...)
	p.replies = append(p.replies, q.replies...)
	p.wall += q.wall
}

func runOpen(cl *httpClient, qs []string, rate float64, clients int, trace bool) phaseResult {
	replies := make([]reply, len(qs))
	outs := openLoop(len(qs), rate, clients, func(i int) { replies[i] = cl.query(qs[i], trace) })
	return phaseResult{queries: qs, outcomes: outs, replies: replies}
}

func runClosed(cl *httpClient, qs []string, d time.Duration, clients int) phaseResult {
	replies := make([]reply, len(qs))
	outs, wall := closedLoop(d, len(qs), clients, func(i int) { replies[i] = cl.query(qs[i], false) })
	return phaseResult{queries: qs[:len(outs)], outcomes: outs, replies: replies[:len(outs)], wall: wall}
}

// leadIn collects the set-up's garbage and runs the unmeasured load
// warm-up.
func leadIn(sp *servingSpec, cl *httpClient, clients int) {
	runtime.GC()
	runOpen(cl, sp.loadWarm, sp.rate, clients, false)
}

// oracle answers every query on an unsharded in-process store with caches
// bypassed; responses must match it byte for byte.
type oracle struct {
	st   *htlvideo.Store
	mu   sync.Mutex
	memo map[string]map[int]htlvideo.SimList
}

func newOracle(doc htlvideo.StoreDoc) (*oracle, error) {
	st, err := doc.Build()
	if err != nil {
		return nil, err
	}
	return &oracle{st: st, memo: map[string]map[int]htlvideo.SimList{}}, nil
}

func (o *oracle) perVideo(q string) (map[int]htlvideo.SimList, error) {
	o.mu.Lock()
	pv, ok := o.memo[q]
	o.mu.Unlock()
	if ok {
		return pv, nil
	}
	res, err := o.st.QueryCtx(context.Background(), q, htlvideo.WithoutCache())
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.memo[q] = res.PerVideo
	o.mu.Unlock()
	return res.PerVideo, nil
}

// topJSON is the canonical encoding of a top-k ranking: the server's own
// document type, marshaled.
func topJSON(rs []htlvideo.Ranked) []byte {
	docs := make([]server.RankedDoc, 0, len(rs))
	for _, rk := range rs {
		docs = append(docs, server.RankedDoc{Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End, Sim: rk.Sim.Act, Frac: rk.Sim.Frac()})
	}
	b, _ := json.Marshal(docs)
	return b
}

// expected is the oracle's top k over the videos with id in visible (all
// videos when visible is nil).
func (o *oracle) expected(q string, visible func(id int) bool) ([]byte, error) {
	pv, err := o.perVideo(q)
	if err != nil {
		return nil, err
	}
	sub := pv
	if visible != nil {
		sub = map[int]htlvideo.SimList{}
		for id, l := range pv {
			if visible(id) {
				sub[id] = l
			}
		}
	}
	return topJSON(o.st.NewResults(sub).TopK(topK)), nil
}

// visibility maps a decoded response to the videos it could see; nil means
// all of them.
type visibility func(doc *shard.QueryDoc) func(int) bool

// check classifies one reply: nil, or the reason it counts as failed.
func (o *oracle) check(q string, r reply, visibleFor visibility) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var doc shard.QueryDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if len(doc.Failed) > 0 || len(doc.Skipped) > 0 || len(doc.Shards.Errors) > 0 {
		first := ""
		if len(doc.Failed) > 0 {
			first = ": " + doc.Failed[0].Error
		}
		return fmt.Errorf("partial reply: %d failed, %d skipped, %d shard errors%s", len(doc.Failed), len(doc.Skipped), len(doc.Shards.Errors), first)
	}
	got, _ := json.Marshal(doc.Top)
	if doc.Top == nil {
		got = []byte("[]")
	}
	var visible func(int) bool
	if visibleFor != nil {
		visible = visibleFor(&doc)
	}
	want, err := o.expected(q, visible)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !bytes.Equal(got, want) {
		return &wrongAnswer{q: q, got: got, want: want}
	}
	return nil
}

type wrongAnswer struct {
	q         string
	got, want []byte
}

func (e *wrongAnswer) Error() string {
	return fmt.Sprintf("wrong top-%d for %q:\n got %s\nwant %s", topK, e.q, e.got, e.want)
}

// verdicts checks every reply of a phase (in parallel, outside any timed
// window), records wrong answers as correctness failures, and returns
// per-request errors.
func (o *oracle) verdicts(ph phaseResult, visibleFor visibility, rep *report) []error {
	errs := make([]error, len(ph.replies))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ph.replies); i += workers {
				errs[i] = o.check(ph.queries[i], ph.replies[i], visibleFor)
			}
		}(w)
	}
	wg.Wait()
	reasons := map[string]int{}
	for _, err := range errs {
		if err == nil {
			continue
		}
		var wa *wrongAnswer
		if errors.As(err, &wa) {
			rep.wrong = append(rep.wrong, err.Error())
		}
		msg := err.Error()
		if len(msg) > 160 {
			msg = msg[:160]
		}
		reasons[msg]++
	}
	for _, msg := range sortedKeys(reasons) {
		rep.note("failed x%d: %s", reasons[msg], msg)
	}
	return errs
}

// oracleCorpus is the document the oracle answers from, and for ingest-read
// the visible-video filter of each response (a response saw the base corpus
// plus the first n acknowledged Adds, n read from its video count).
func oracleCorpus(sp *servingSpec, wr *writerResult) (htlvideo.StoreDoc, visibility) {
	if sp.ingest == nil {
		return sp.corpus, nil
	}
	full := sp.corpus
	full.Videos = append(append([]htlvideo.VideoDoc(nil), sp.corpus.Videos...), sp.ingest.videos[:len(wr.acked)+wr.failed]...)
	base := len(sp.corpus.Videos)
	return full, func(doc *shard.QueryDoc) func(int) bool {
		n := doc.Videos - base
		if n < 0 || n > len(wr.acked) {
			return func(int) bool { return false }
		}
		added := map[int]bool{}
		for _, id := range wr.acked[:n] {
			added[id] = true
		}
		return func(id int) bool { return id < firstIngestID || added[id] }
	}
}

// checkReopen reopens the closed data directory read-only and checks that
// every acknowledged Add is present and that the recovered store answers
// every shape like the oracle.
func checkReopen(dir string, wr *writerResult, sp *servingSpec, orc *oracle, rep *report) {
	ro := reopenDurable(dir, wr, rep)
	if ro == nil {
		return
	}
	defer ro.Close()
	acked := map[int]bool{}
	for _, id := range wr.acked {
		acked[id] = true
	}
	visible := func(id int) bool { return id < firstIngestID || acked[id] }
	for _, q := range sp.warm {
		res, err := ro.QueryCtx(context.Background(), q, htlvideo.WithoutCache())
		if err != nil {
			rep.wrong = append(rep.wrong, fmt.Sprintf("reopened store: %q: %v", q, err))
			continue
		}
		want, err := orc.expected(q, visible)
		if err != nil {
			rep.wrong = append(rep.wrong, fmt.Sprintf("oracle: %q: %v", q, err))
			continue
		}
		if got := topJSON(res.TopK(topK)); !bytes.Equal(got, want) {
			rep.wrong = append(rep.wrong, (&wrongAnswer{q: q, got: got, want: want}).Error())
		}
	}
}

func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.latency())
	}
	return xs
}

// cycles is how many times a run alternates between its phases: each
// cycle has an open-loop segment, a closed-loop segment and a slice of the
// reference probes, so every metric samples the whole run rather than one
// stretch of it.
const cycles = 5

// runServingUntraced runs the end-to-end measurement of a serving workload.
// between runs after every cycle (the reference-probe slices).
func runServingUntraced(sp *servingSpec, cfg runConfig, between func() error, rep *report) error {
	st, setupS, err := setUpTimed(sp, cfg.workdir)
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

	var writerVideos []*htlvideo.Video
	if sp.ingest != nil {
		writerVideos = videosOf(htlvideo.StoreDoc{Taxonomy: taxonomy(), Videos: sp.ingest.videos})
	}
	openPer := sp.openN / cycles
	closedDur := time.Duration((1 - openShare) * cfg.seconds / cycles * float64(time.Second))
	var open, closed phaseResult
	var wr writerResult
	next := sp.openN
	for c := 0; c < cycles; c++ {
		var wg sync.WaitGroup
		if sp.ingest != nil {
			lo, hi := c*len(writerVideos)/cycles, (c+1)*len(writerVideos)/cycles
			wg.Add(1)
			go func() {
				defer wg.Done()
				runWriter(st.servers[0].Store(), writerVideos[lo:hi], sp.ingest.videos[lo:hi], sp.ingest.rate, &wr)
			}()
		}
		open.extend(runOpen(cl, sp.stream[c*openPer:(c+1)*openPer], sp.rate, clients, false))
		ph := runClosed(cl, sp.stream[next:], closedDur, clients)
		next += len(ph.outcomes)
		closed.extend(ph)
		wg.Wait()
		if err := between(); err != nil {
			return err
		}
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), "MiB")
	rep.set("setup_s", setupS, "s")

	// Correctness, outside the timed window.
	full, visibleFor := oracleCorpus(sp, &wr)
	orc, err := newOracle(full)
	if err != nil {
		return err
	}
	openErrs := orc.verdicts(open, visibleFor, rep)
	closedErrs := orc.verdicts(closed, visibleFor, rep)
	if sp.ingest != nil {
		dir := st.dataDir
		err := st.close()
		st = nil
		if err != nil {
			return err
		}
		checkReopen(dir, &wr, sp, orc, rep)
		wr.count(rep)
		rep.note("writer: %d Adds at %g/s beside the readers, median %.3fms, %d failed, %d checkpoints",
			len(wr.lat)+wr.failed, sp.ingest.rate, wr.addMedianMS(), wr.failed, wr.checkpoints)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	workloadProperties(sp, rep)
	queryMetrics(sp, open, closed, openErrs, closedErrs, rep)
	return nil
}

// queryMetrics derives the query family's end-to-end metrics.
func queryMetrics(sp *servingSpec, open, closed phaseResult, openErrs, closedErrs []error, rep *report) {
	lat := latencies(open.outcomes)
	within, failed := 0, 0
	for i, err := range openErrs {
		if err != nil {
			failed++
		} else if lat[i] <= sp.sloMS {
			within++
		}
	}
	failedClosed := 0
	for _, err := range closedErrs {
		if err != nil {
			failedClosed++
		}
	}
	sent := len(open.outcomes)
	rep.attempted += sent + len(closed.outcomes)
	rep.failed += failed + failedClosed

	// Latency percentiles cover every request sent: a failed request still
	// took its time, and it already counts against the SLO share.
	rep.set("query_p50_ms", median(lat), "ms")
	// The p99 is printed for reading only (the traced run reports it), so
	// too few samples for it is not a failure here.
	if p99, err := percentile(lat, 0.99); err == nil {
		rep.set("query_p99_ms", p99, "ms")
	} else {
		rep.note("query_p99_ms: %v", err)
	}
	rep.set("query_slo_frac", float64(within)/float64(sent), "ratio")
	rep.set("query_failed_frac", float64(failed+failedClosed)/float64(sent+len(closed.outcomes)), "ratio")
	rep.set("query_sat_qps", float64(len(closed.outcomes)-failedClosed)/closed.wall.Seconds(), "req/s")
	rep.note("open loop: %d requests at %.0f/s, closed loop: %d requests in %.2fs, %d clients, %d failed",
		sent, sp.rate, len(closed.outcomes), closed.wall.Seconds(), runtime.NumCPU(), failed+failedClosed)
}
