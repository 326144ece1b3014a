package main

// Durable ingest: Store.Add latency on a durable store (fsync=always), the
// write-ahead log's space and checkpoint behaviour, and recovery.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"htlvideo"
)

// writerResult is the record of one writer's Adds.
type writerResult struct {
	lat []time.Duration
	// acked lists the ids of acknowledged Adds, in order.
	acked  []int
	failed int
	// stalls are Adds during which the snapshot sequence moved (a
	// checkpoint ran inside the Add).
	stalls      []time.Duration
	checkpoints int
	userBytes   int64
}

// add makes and times one Add.
func (w *writerResult) add(st *htlvideo.Store, v *htlvideo.Video, doc htlvideo.VideoDoc) {
	before := st.DurableStats().SnapshotSeq
	t := time.Now()
	err := st.Add(v)
	d := time.Since(t)
	if err != nil {
		w.failed++
		return
	}
	w.lat = append(w.lat, d)
	w.acked = append(w.acked, v.ID)
	if b, err := json.Marshal(doc); err == nil {
		w.userBytes += int64(len(b))
	}
	if st.DurableStats().SnapshotSeq != before {
		w.stalls = append(w.stalls, d)
		w.checkpoints++
	}
}

// runWriter adds the videos at a fixed rate, one Add at a time.
func runWriter(st *htlvideo.Store, videos []*htlvideo.Video, docs []htlvideo.VideoDoc, rate float64, w *writerResult) {
	start := time.Now()
	for i, v := range videos {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.add(st, v, docs[i])
	}
}

// addMedianMS is the writer's median Add latency. Only the median is
// reported: ingest-read's writer makes nine Adds a run (every
// Add empties the result cache, so a faster writer would saturate the
// readers), too few for a tail percentile with ten samples beyond it. The
// checkpoint stall, the tail that matters, is wal.checkpoint_stall_ms.
func (w *writerResult) addMedianMS() float64 {
	xs := make([]float64, len(w.lat))
	for i, d := range w.lat {
		xs[i] = ms(d)
	}
	return median(xs)
}

// count adds the writer's Adds to the run's accounting.
func (w *writerResult) count(rep *report) {
	rep.attempted += len(w.lat) + w.failed
	rep.failed += w.failed
}

// walMetrics reports the write-ahead log's per-layer metrics for a data
// directory the writer filled.
func walMetrics(dir string, w *writerResult, rep *report) {
	rep.set("wal.add_p50_ms", w.addMedianMS(), "ms")
	var bytes int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
		return nil
	})
	rep.set("wal.space_per_user_byte", ratio(float64(bytes), float64(w.userBytes)), "ratio")
	rep.set("wal.checkpoints", float64(w.checkpoints), "count")
	stalls := make([]float64, len(w.stalls))
	for i, d := range w.stalls {
		stalls[i] = ms(d)
	}
	rep.set("wal.checkpoint_stall_ms", median(stalls), "ms")
}

// reopenDurable reopens a closed data directory read-only and checks that
// every acknowledged Add survived. It returns nil, with the failure
// recorded, when the directory does not recover.
func reopenDurable(dir string, w *writerResult, rep *report) *htlvideo.Store {
	ro, err := htlvideo.OpenDurable(dir, htlvideo.WithReadOnly(), htlvideo.WithDurableTaxonomy(buildTaxonomy(), htlvideo.DefaultWeights()))
	if err != nil {
		rep.wrong = append(rep.wrong, fmt.Sprintf("reopening %s read-only: %v", filepath.Base(dir), err))
		return nil
	}
	missing := 0
	for _, id := range w.acked {
		if ro.Video(id) == nil {
			missing++
		}
	}
	if missing > 0 {
		rep.wrong = append(rep.wrong, fmt.Sprintf("%d acknowledged Adds missing after reopen", missing))
	}
	// A run may check two directories (ingest-read's shard and the probe's);
	// the larger failure share stands.
	if attempted := len(w.acked) + w.failed; attempted > 0 {
		frac := float64(w.failed+missing) / float64(attempted)
		if old, ok := rep.metrics["ingest_failed_frac"]; !ok || frac > old.Value {
			rep.set("ingest_failed_frac", frac, "ratio")
		}
	}
	return ro
}

// ingestProbeAdds is the size of the unloaded ingest probe.
const ingestProbeAdds = 100

// ingestProbe measures Adds on a durable store of its own with no readers:
// ingest_p50_ms on every workload. (ingest-read's writer, beside the
// readers, moved by more than the largest bound between runs of the same
// code: its few Adds wait on readers for the CPU. It is the per-layer
// wal.add_p50_ms there.) The probe's Adds are made in slices spread over
// the run.
type ingestProbe struct {
	dir    string
	st     *htlvideo.Store
	videos []*htlvideo.Video
	docs   []htlvideo.VideoDoc
	next   int
	w      writerResult
}

func newIngestProbe(cfg runConfig) (*ingestProbe, error) {
	dir := filepath.Join(cfg.workdir, "ingest-probe")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := htlvideo.OpenDurable(dir, durableOptions(probeCheckpointRecords)...)
	if err != nil {
		return nil, err
	}
	docs := corpus(rngFor(cfg.seed, "ingest-videos"), firstIngestID, ingestProbeAdds, ingestShots).Videos
	return &ingestProbe{dir: dir, st: st, docs: docs, videos: videosOf(htlvideo.StoreDoc{Taxonomy: taxonomy(), Videos: docs})}, nil
}

// slice makes the next n Adds back to back. It first flushes what the
// workload wrote: on ingest-read the shard's own log and checkpoints left
// dirty data behind that the probe's fsyncs then waited on, which spread
// the probe's median more than the bound allows.
func (p *ingestProbe) slice(n int) {
	syscall.Sync()
	for ; n > 0 && p.next < len(p.videos); n-- {
		p.w.add(p.st, p.videos[p.next], p.docs[p.next])
		p.next++
	}
}

// finish makes the remaining Adds, closes the store, checks recovery,
// reports (the wal metrics too, when wal is set) and removes the data
// directory.
func (p *ingestProbe) finish(wal bool, rep *report) error {
	p.slice(len(p.videos))
	defer os.RemoveAll(p.dir)
	if err := p.st.Close(); err != nil {
		return err
	}
	p.w.count(rep)
	rep.set("ingest_p50_ms", p.w.addMedianMS(), "ms")
	if wal {
		walMetrics(p.dir, &p.w, rep)
	}
	rep.note("ingest probe: %d unloaded Adds, %d checkpoints", len(p.w.lat)+p.w.failed, p.w.checkpoints)
	if ro := reopenDurable(p.dir, &p.w, rep); ro != nil {
		return ro.Close()
	}
	return nil
}
