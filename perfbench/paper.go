package main

// paper-tables: the §4 experiment (Tables 5–6). `P1 and P2` and
// `P1 until P2` over internal/experiments random similarity lists at 10k,
// 50k and 100k shots, evaluated by the direct §3 list operators and by the
// SQL baseline, one caller in a closed loop. Table loads are set-up, as in
// the paper; an SQL operation is the execution of its statement sequence.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"htlvideo/internal/experiments"
	"htlvideo/internal/relational"
	"htlvideo/internal/simlist"
	"htlvideo/internal/sqlgen"
)

var (
	paperOps   = []experiments.Op{experiments.OpAnd, experiments.OpUntil}
	paperSizes = []int{10000, 50000, 100000}
)

const (
	paperTau = 0.5
	// paperSLOMS is the latency limit of one direct operation.
	paperSLOMS = 5.0
	// paperDirectShare is the share of the batch spent on direct
	// operations; the SQL baseline, two orders of magnitude slower, takes
	// the rest.
	paperDirectShare = 0.3
)

// paperCase is one (operation, size) cell of Tables 5–6.
type paperCase struct {
	op   experiments.Op
	size int
	in   experiments.PerfInput
}

func paperInputs(seed int64) []*paperCase {
	var cs []*paperCase
	for _, size := range paperSizes {
		for i, op := range paperOps {
			cs = append(cs, &paperCase{op: op, size: size, in: experiments.PrepareInput(op, size, seed*7919+int64(size)+int64(i))})
		}
	}
	return cs
}

// sqlTables is one case's loaded SQL side.
type sqlTables struct {
	tr    *sqlgen.Translator
	atoms map[string]sqlgen.Atom
	// stmts and rows count the relational engine's work through DB.OnStmt.
	stmts, rows int64
}

// load builds the SQL side, the series relation and the atomic interval
// tables, and returns it with how long that took.
func (c *paperCase) load() (*sqlTables, time.Duration, error) {
	start := time.Now()
	tr, atoms, err := experiments.PrepareSQL(c.op, c.in, paperTau)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	t := &sqlTables{tr: tr, atoms: atoms}
	tr.DB.OnStmt = func(info relational.StmtInfo) {
		t.stmts++
		t.rows += int64(info.Rows)
	}
	return t, d, nil
}

// paperSample is one timed operation.
type paperSample struct {
	c   *paperCase
	lat time.Duration
}

// paperBatch accumulates one run's operations.
type paperBatch struct {
	rng         *rand.Rand
	nextDirect  int
	direct, sql []paperSample
	directWall  time.Duration
	stmts, rows int64
	// loads100k are the table-load times at 100k shots.
	loads100k []float64
	// directOut is each case's first direct result; mismatches lists the
	// SQL operations whose result differed from it.
	directOut  map[*paperCase]simlist.List
	mismatches []*paperCase
}

func newPaperBatch(seed int64) *paperBatch {
	return &paperBatch{rng: rand.New(rand.NewSource(seed)), directOut: map[*paperCase]simlist.List{}}
}

// runDirect runs direct operations round-robin over the cases for d, and
// at least until every case has run once.
func (b *paperBatch) runDirect(cases []*paperCase, d time.Duration) {
	start := time.Now()
	for n := 0; n < len(cases) || time.Since(start) < d; n++ {
		c := cases[b.nextDirect%len(cases)]
		b.nextDirect++
		out, lat := experiments.RunDirect(c.op, c.in, paperTau, b.rng)
		b.direct = append(b.direct, paperSample{c: c, lat: lat})
		if _, ok := b.directOut[c]; !ok {
			b.directOut[c] = out
		}
	}
	b.directWall += time.Since(start)
}

// runSQL runs one SQL operation per case, each on freshly loaded tables
// (untimed), like experiments.RunSQL: the translator keeps each run's
// intermediate relations, so reusing one would grow the database. Direct
// results must exist for the cases (runDirect first).
func (b *paperBatch) runSQL(cases []*paperCase) error {
	for _, c := range cases {
		t, load, err := c.load()
		if err != nil {
			return err
		}
		if c.size == 100000 {
			b.loads100k = append(b.loads100k, ms(load))
		}
		start := time.Now()
		out, err := t.tr.Eval(c.op.Formula(), t.atoms)
		lat := time.Since(start)
		if err != nil {
			return fmt.Errorf("SQL %q at %d: %w", c.op, c.size, err)
		}
		b.sql = append(b.sql, paperSample{c: c, lat: lat})
		if want, ok := b.directOut[c]; !ok || !simlist.EqualApprox(want, out, 1e-6) {
			b.mismatches = append(b.mismatches, c)
		}
		b.stmts += t.stmts
		b.rows += t.rows
	}
	return nil
}

// perOpMS is the mean over the operations of each operation's median
// latency at size: the two operations differ in cost, so a median over
// their mixture would jump between them with the sample counts.
func perOpMS(ss []paperSample, size int) float64 {
	sum := 0.0
	for _, op := range paperOps {
		var xs []float64
		for _, s := range ss {
			if s.c.size == size && s.c.op == op {
				xs = append(xs, ms(s.lat))
			}
		}
		sum += median(xs)
	}
	return sum / float64(len(paperOps))
}

// check verifies that direct and SQL agree on every case and that the
// direct method beats SQL at every size (the paper's §4 claim).
func (b *paperBatch) check(rep *report) {
	rep.attempted += len(b.sql)
	rep.failed += len(b.mismatches)
	for _, c := range b.mismatches {
		rep.wrong = append(rep.wrong, fmt.Sprintf("direct and SQL lists differ on %q at %d shots", c.op, c.size))
	}
	sizes := map[int]bool{}
	for _, s := range b.sql {
		sizes[s.c.size] = true
	}
	for size := range sizes {
		if d, q := perOpMS(b.direct, size), perOpMS(b.sql, size); !(d < q) {
			rep.wrong = append(rep.wrong, fmt.Sprintf("direct (%.3fms) does not beat SQL (%.3fms) at %d shots", d, q, size))
		}
	}
}

// report reports the direct-vs-SQL end-to-end metrics at the paper's
// largest size and, traced, the per-layer metrics of the list operators
// and the SQL baseline.
func (b *paperBatch) report(traced bool, rep *report) {
	d, q := perOpMS(b.direct, 100000), perOpMS(b.sql, 100000)
	rep.set("direct_op_ms", d, "ms")
	rep.set("sql_op_ms", q, "ms")
	rep.set("sql_over_direct", q/d, "x")
	if !traced {
		return
	}
	for _, size := range paperSizes {
		rep.set(fmt.Sprintf("core.direct_ms.%dk", size/1000), perOpMS(b.direct, size), "ms")
	}
	if n := len(b.sql); n > 0 {
		rep.set("sqlgen.statements_per_op", float64(b.stmts)/float64(n), "count")
		rep.set("relational.rows_per_op", float64(b.rows)/float64(n), "count")
	}
	rep.set("sqlgen.load_ms", median(b.loads100k), "ms")
}

// paperProbe measures the direct-vs-SQL family for workloads that do not
// own it, in slices spread over the run: direct operations at every size,
// SQL at 100k shots.
type paperProbe struct {
	cases, sqlCases []*paperCase
	b               *paperBatch
}

func newPaperProbe(cfg runConfig) *paperProbe {
	p := &paperProbe{cases: paperInputs(cfg.seed), b: newPaperBatch(cfg.seed)}
	for _, c := range p.cases {
		if c.size == 100000 {
			p.sqlCases = append(p.sqlCases, c)
		}
	}
	return p
}

// slice runs 100 ms of direct operations and one SQL operation per
// operation at 100k shots.
func (p *paperProbe) slice() error {
	p.b.runDirect(p.cases, 100*time.Millisecond)
	return p.b.runSQL(p.sqlCases)
}

func (p *paperProbe) finish(traced bool, rep *report) {
	p.b.check(rep)
	p.b.report(traced, rep)
	rep.note("paper probe: %d direct and %d SQL operations", len(p.b.direct), len(p.b.sql))
}

// runPaperTables is the paper-tables workload: cycles of direct
// operations, SQL operations and an ingest-probe slice, so every metric
// samples the whole run.
func runPaperTables(cfg runConfig, rep *report) error {
	if cfg.traced {
		// The serving layers' per-layer metrics come from a traced
		// reference run of popular-shapes: this workload has no serving
		// stack of its own. It runs first so that this workload's own
		// request metrics below replace the reference's.
		rep.note("serving layers: traced popular-shapes reference run")
		if err := runServingTraced(popularSpec(cfg), cfg, rep); err != nil {
			return err
		}
	}
	cases := paperInputs(cfg.seed)
	var setups []float64
	began := time.Now()
	for r := 0; r < minSetups || (r < maxSetups && time.Since(began) < setupBudget); r++ {
		start := time.Now()
		for _, c := range cases {
			if _, _, err := c.load(); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	probe, err := newIngestProbe(cfg)
	if err != nil {
		return err
	}
	seconds := cfg.seconds
	if cfg.traced {
		// The traced run also replays a serving reference; keep it short.
		seconds *= 0.4
	}
	cycle := time.Duration(seconds / cycles * float64(time.Second))
	directTime := time.Duration(paperDirectShare * float64(cycle))
	b := newPaperBatch(cfg.seed)
	for c := 0; c < cycles; c++ {
		b.runDirect(cases, directTime)
		start := time.Now()
		for time.Since(start) < cycle-directTime {
			if err := b.runSQL(cases); err != nil {
				return err
			}
		}
		probe.slice(ingestProbeAdds / cycles)
	}
	b.check(rep)
	b.report(cfg.traced, rep)

	// The direct operations are this workload's requests.
	lat := make([]float64, len(b.direct))
	within := 0
	for i, s := range b.direct {
		lat[i] = ms(s.lat)
		if lat[i] <= paperSLOMS {
			within++
		}
	}
	rep.attempted += len(b.direct)
	p99, err := percentile(lat, 0.99)
	if err != nil {
		rep.wrong = append(rep.wrong, fmt.Sprintf("query_p99_ms: %v", err))
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("query_p50_ms", median(lat), "ms")
	rep.set("query_p99_ms", p99, "ms")
	rep.set("query_slo_frac", float64(within)/float64(len(lat)), "ratio")
	rep.set("query_sat_qps", float64(len(b.direct))/b.directWall.Seconds(), "req/s")
	rep.set("query_failed_frac", 0, "ratio")
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), "MiB")
	rep.note("batch: %d direct operations in %.2fs, %d SQL operations", len(b.direct), b.directWall.Seconds(), len(b.sql))
	return probe.finish(cfg.traced, rep)
}
