package main

// The four workloads and their fixed settings. Open-loop rates are about a
// third of the closed-loop saturation throughput measured on the 2-vCPU
// reference machine (Intel Xeon, Go 1.24) at the commit that introduced
// the benchmark (popular-shapes ~520 req/s, adhoc-long ~365, ingest-read
// ~260): at half of saturation the latency of runs of the same code spread
// wider than the bounds allow. They are constants, never derived at run
// time, so a change that moves saturation shows as latency at an unchanged
// offered load.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
)

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	workdir string
}

type workloadDef struct {
	// env lists the workload's rate and corpus sizes for the environment
	// block.
	env string
	run func(cfg runConfig, rep *report) error
}

// workloads maps each workload's name to its definition.
var workloads = map[string]workloadDef{
	"popular-shapes": {
		env: fmt.Sprintf("rate=%g/s slo=%gms videos=%d shots~%d shards=2 shapes=%d zipf=%g", popularRate, popularSLOMS, popularVideos, popularShots, popularShapes, popularZipf),
		run: func(cfg runConfig, rep *report) error { return runServing(popularSpec(cfg), cfg, rep) },
	},
	"adhoc-long": {
		env: fmt.Sprintf("rate=%g/s slo=%gms videos=%d shots~%d shards=2 type2=%d/20 general=%d/20", adhocRate, adhocSLOMS, adhocVideos, adhocShots, adhocType2Per20, adhocGeneralPer20),
		run: func(cfg runConfig, rep *report) error { return runServing(adhocSpec(cfg), cfg, rep) },
	},
	"ingest-read": {
		env: fmt.Sprintf("read_rate=%g/s write_rate=%g/s slo=%gms videos=%d shots~%d shards=1", ingestReadRPS, ingestRate, ingestSLOMS, popularVideos, popularShots),
		run: func(cfg runConfig, rep *report) error { return runServing(ingestReadSpec(cfg), cfg, rep) },
	},
	"paper-tables": {
		env: fmt.Sprintf("ops=and,until sizes=10k,50k,100k direct_share=%g slo=%gms callers=1", paperDirectShare, paperSLOMS),
		run: runPaperTables,
	},
}

func workloadNames() []string { return sortedKeys(workloads) }

// Settings of the serving workloads.
const (
	popularVideos = 64
	popularShots  = 24
	popularShapes = 64 // type (1), nesting depth 1 and 2 alternately
	popularZipf   = 1.1
	popularRate   = 150.0 // requests/s
	popularSLOMS  = 20.0

	adhocVideos       = 8
	adhocShots        = 64
	adhocType2Per20   = 3 // type (2) formulas in every 20 requests
	adhocGeneralPer20 = 3 // general-HTL formulas (reference evaluator) in every 20
	adhocRate         = 120.0
	adhocSLOMS        = 20.0

	// ingest-read's writer is slow on purpose: every Add empties the
	// result cache, and at 2 and at 1 Adds/s so many reads ran cold that
	// the median read sat near the edge between the warm and the cold
	// mode and moved by more than the bound between runs.
	ingestRate    = 0.5 // Adds/s
	ingestShots   = 24
	ingestReadRPS = 80.0
	ingestSLOMS   = 25.0
)

// The generator streams are seeded per purpose, so changing one input
// (say, the stream length) leaves the others byte-identical.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// openShare is the share of a run's seconds spent in the open-loop phase;
// the closed-loop phase takes the rest.
const openShare = 0.7

// loadWarmSeconds is the unmeasured open-loop lead-in after set-up: the
// first second after set-up runs slower (set-up garbage, cold connection
// pools) on every workload.
const loadWarmSeconds = 1.0

// streamLen sizes a stream: the load warm-up, the open-loop share, and
// enough for a closed loop at up to 5× the open-loop rate (saturation is
// about 3× the rate).
func streamLen(rate, seconds float64) (warmN, openN, total int) {
	warmN = int(rate * loadWarmSeconds)
	openN = int(rate * openShare * seconds)
	return warmN, openN, warmN + openN + int(rate*5*(1-openShare)*seconds) + 64
}

// popularSpec builds popular-shapes: 64 short videos on 2 shards; requests
// draw from 64 formula shapes with Zipf popularity.
func popularSpec(cfg runConfig) *servingSpec {
	doc := corpus(rngFor(cfg.seed, "popular-corpus"), 1, popularVideos, popularShots)
	shapes := distinctFormulas(rngFor(cfg.seed, "popular-shapes"), popularShapes, mix(2, 0, 0, 1, 2))
	return popularStream(&servingSpec{
		corpus: doc, shards: 2, warm: shapes,
		rate: popularRate, sloMS: popularSLOMS,
	}, cfg)
}

// popularStream draws the spec's request stream from its shapes (sp.warm)
// with Zipf popularity at the spec's rate.
func popularStream(sp *servingSpec, cfg runConfig) *servingSpec {
	warmN, openN, total := streamLen(sp.rate, cfg.seconds)
	idx := zipfStream(rngFor(cfg.seed, "popular-stream"), total, popularShapes, popularZipf)
	stream := make([]string, total)
	for i, j := range idx {
		stream[i] = sp.warm[j]
	}
	sp.loadWarm, sp.stream, sp.openN = stream[:warmN], stream[warmN:], openN
	return sp
}

// adhocSpec builds adhoc-long: 8 long videos on 2 shards; every request is
// a distinct formula over the shared atom pool.
func adhocSpec(cfg runConfig) *servingSpec {
	doc := corpus(rngFor(cfg.seed, "adhoc-corpus"), 1, adhocVideos, adhocShots)
	rate := adhocRate
	warmN, openN, total := streamLen(rate, cfg.seconds)
	fs := distinctFormulas(rngFor(cfg.seed, "adhoc-stream"), total+1, mix(20, adhocType2Per20, adhocGeneralPer20, 2))
	// The set-up query builds every picture system; like the load warm-up
	// it is not in the measured stream, so no request finds its result
	// cached.
	return &servingSpec{
		corpus: doc, shards: 2, warm: fs[total:], loadWarm: fs[:warmN],
		stream: fs[warmN:total], openN: openN, rate: rate, sloMS: adhocSLOMS,
	}
}

// ingestSpec builds ingest-read: the popular-shapes corpus and stream on
// one durable shard, with a writer adding new short videos.
func ingestReadSpec(cfg runConfig) *servingSpec {
	sp := popularSpec(cfg)
	sp.shards = 1
	sp.rate = ingestReadRPS
	popularStream(sp, cfg)
	sp.sloMS = ingestSLOMS
	// The writer spans the whole measured window.
	n := int(ingestRate * cfg.seconds)
	add := corpus(rngFor(cfg.seed, "ingest-videos"), firstIngestID, n, ingestShots)
	sp.ingest = &ingestSpec{videos: add.Videos, rate: ingestRate}
	return sp
}

// runServing runs a serving workload with the reference probes in slices
// between its cycles: the unloaded ingest probe and the direct-vs-SQL
// probe.
func runServing(sp *servingSpec, cfg runConfig, rep *report) error {
	ingest, err := newIngestProbe(cfg)
	if err != nil {
		return err
	}
	paper := newPaperProbe(cfg)
	slice := func() error {
		ingest.slice(ingestProbeAdds / cycles)
		return paper.slice()
	}
	if cfg.traced {
		if err = runServingTraced(sp, cfg, rep); err == nil {
			err = slice()
		}
	} else {
		err = runServingUntraced(sp, cfg, slice, rep)
	}
	if err != nil {
		return err
	}
	// ingest-read's own writer supplies its wal metrics.
	if err := ingest.finish(cfg.traced && sp.ingest == nil, rep); err != nil {
		return err
	}
	paper.finish(cfg.traced, rep)
	return nil
}

// endToEndNames are the metrics of an untraced run. query_p99_ms,
// query_failed_frac and ingest_failed_frac are printed by every run but
// reported in the traced run's set: the p99 moved by more than the largest
// allowed bound between runs of the same code on the 2-vCPU reference
// machine (query_slo_frac carries the tail steadily), and the failure
// shares are zero on a correct run.
var endToEndNames = []string{
	"setup_s", "query_p50_ms", "query_slo_frac", "query_sat_qps",
	"ingest_p50_ms", "live_heap_mb",
	"direct_op_ms", "sql_op_ms", "sql_over_direct",
}

var perLayerNames = []string{
	"shard.self_ms", "shard.requests_per_query", "shard.hedge_frac",
	"server.self_ms", "server.store_calls_per_req", "server.shed_frac",
	"store.result_cache_hit_ratio", "store.result_cache_evictions_per_req",
	"store.plan_cache_hit_ratio", "store.query_cold_ms", "store.query_warm_us",
	"store.picture_cache_hit_ratio", "store.picture_cache_size",
	"htl.parse_us",
	"picture.atomic_ms", "picture.atomic_share", "picture.build_ms", "picture.atom_repeat_frac",
	"core.combine_ms", "core.memo_hits_per_query", "core.topk_entries_skipped_per_query", "core.reorders",
	"core.direct_ms.10k", "core.direct_ms.50k", "core.direct_ms.100k",
	"sqlgen.statements_per_op", "relational.rows_per_op", "sqlgen.load_ms",
	"wal.space_per_user_byte", "wal.checkpoints", "wal.checkpoint_stall_ms",
	"runtime.allocs_per_query", "runtime.alloc_kb_per_query", "runtime.gc_cpu_frac",
	"loadgen.lag_p99_ms", "obs.trace_overhead_frac",
	"workload.formula_repeat_frac", "query_p99_ms", "query_failed_frac", "ingest_failed_frac",
	"wal.add_p50_ms",
}

// printEnv prints the environment block every result carries: the
// machine, the run, the durable settings and every workload's settings.
func printEnv(workload string, cfg runConfig) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	env := map[string]string{
		"go":                 runtime.Version(),
		"gomaxprocs":         fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":              fmt.Sprint(runtime.NumCPU()),
		"cpu":                cpu,
		"seed":               fmt.Sprint(cfg.seed),
		"seconds":            fmt.Sprint(cfg.seconds),
		"traced":             fmt.Sprint(cfg.traced),
		"workload":           workload,
		"fsync":              "always",
		"checkpoint_records": fmt.Sprintf("shard=%d probe=%d", shardCheckpointRecords, probeCheckpointRecords),
	}
	for name, d := range workloads {
		env["settings."+name] = d.env
	}
	var b strings.Builder
	b.WriteString("# env")
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(&b, " %s=%q", k, env[k])
	}
	fmt.Println(b.String())
}
