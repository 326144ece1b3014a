package main

// The deployed stack under test: the internal/shard coordinator over
// loopback internal/server shards over htlvideo stores, configured with
// cmd/htlserve's defaults (result cache 1024 entries / 1m TTL, hedge
// 100 ms, fsync=always for durable shards).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// The -checkpoint-records deployment settings: low enough that several
// checkpoints land in every run, for ingest-read's shard (about nine Adds a
// run) and for the ingest probe (a hundred).
const (
	shardCheckpointRecords = 3
	probeCheckpointRecords = 5
)

// serverOptions mirrors cmd/htlserve's flag defaults for a shard server.
func serverOptions() []server.Option {
	retry := server.DefaultRetryConfig()
	retry.MaxAttempts = 3
	breaker := server.DefaultBreakerConfig()
	breaker.OpenFor = time.Second
	return []server.Option{
		server.WithRetry(retry),
		server.WithBreaker(breaker),
		server.WithDefaultTimeout(5 * time.Second),
		server.WithMaxTimeout(30 * time.Second),
		server.WithDrainTimeout(10 * time.Second),
		server.WithLogger(obs.LoggerFunc(func(string, ...any) {})),
		server.WithQueryStatsCapacity(512),
		server.WithSampleInterval(5 * time.Second),
		server.WithResultCache(htlvideo.ResultCacheConfig{Capacity: 1024, TTL: time.Minute}),
	}
}

// durableOptions mirrors htlserve -data-dir -fsync always with the
// benchmark's checkpoint threshold.
func durableOptions(checkpointRecords int) []htlvideo.DurableOption {
	return []htlvideo.DurableOption{
		htlvideo.WithSyncPolicy(htlvideo.SyncAlways),
		htlvideo.WithCheckpointEvery(checkpointRecords, htlvideo.DefaultCheckpointBytes),
		htlvideo.WithDurableTaxonomy(buildTaxonomy(), htlvideo.DefaultWeights()),
	}
}

func buildTaxonomy() *htlvideo.Taxonomy {
	tax := htlvideo.NewTaxonomy()
	for _, e := range taxonomy() {
		if err := tax.Add(e.Child, e.Parent); err != nil {
			panic(err)
		}
	}
	return tax
}

// listener serves one handler on a loopback port until stopped.
type listener struct {
	url  string
	done chan error
}

func serve(serveFn func(net.Listener) error) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ln := &listener{url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { ln.done <- serveFn(l) }()
	return ln, nil
}

// wait returns once the serve loop has exited.
func (l *listener) wait() error {
	if err := <-l.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// stack is one running deployment.
type stack struct {
	servers  []*server.Server
	shardLns []*listener
	coord    *shard.Coordinator
	coordHS  *http.Server
	coordLn  *listener
	// dataDir is the durable shard's directory ("" for in-memory stacks).
	dataDir string
}

// newStack starts one shard server per document and a coordinator over
// them. With dataDir set there must be one document: its shard is durable,
// recovered from dataDir and preloaded with the document's videos through
// Store.Add (WAL-first, fsync=always).
func newStack(docs []htlvideo.StoreDoc, dataDir string) (*stack, error) {
	s := &stack{dataDir: dataDir}
	var urls []string
	for _, doc := range docs {
		var srv *server.Server
		if dataDir != "" {
			var err error
			if srv, err = server.OpenDir(dataDir, durableOptions(shardCheckpointRecords), serverOptions()...); err != nil {
				return nil, err
			}
			st := srv.Store()
			for _, v := range videosOf(doc) {
				if err := st.Add(v); err != nil {
					return nil, fmt.Errorf("preloading video %d: %w", v.ID, err)
				}
			}
		} else {
			st, err := doc.Build()
			if err != nil {
				return nil, err
			}
			srv = server.New(st, serverOptions()...)
		}
		ln, err := serve(srv.Serve)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.shardLns = append(s.shardLns, ln)
		urls = append(urls, ln.url)
	}
	retry := server.DefaultRetryConfig()
	retry.MaxAttempts = 3
	breaker := server.DefaultBreakerConfig()
	breaker.OpenFor = time.Second
	s.coord = shard.New(urls,
		shard.WithMinShards(1),
		shard.WithHedgeDelay(100*time.Millisecond),
		shard.WithDefaultTimeout(5*time.Second),
		shard.WithMaxTimeout(30*time.Second),
		shard.WithRetryConfig(retry),
		shard.WithBreakerConfig(breaker),
		shard.WithSampleInterval(5*time.Second),
	)
	s.coordHS = server.NewHTTPServer("", s.coord.Handler())
	ln, err := serve(s.coordHS.Serve)
	if err != nil {
		return nil, err
	}
	s.coordLn = ln
	return s, nil
}

// close drains the coordinator and every shard and waits for their serve
// loops to exit.
func (s *stack) close() error {
	var errs []error
	if s.coordHS != nil {
		s.coord.Drain()
		errs = append(errs, s.coordHS.Shutdown(context.Background()), s.coordLn.wait())
		s.coord.Close()
	}
	for i, srv := range s.servers {
		errs = append(errs, srv.Shutdown(context.Background()))
		if i < len(s.shardLns) {
			errs = append(errs, s.shardLns[i].wait())
		}
	}
	return errors.Join(errs...)
}

// remove closes the stack and deletes its data directory.
func (s *stack) remove() error {
	err := s.close()
	if s.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(s.dataDir))
	}
	return err
}

// videosOf materializes a document's videos through the public document
// loader, so the program receives exactly the generated documents.
func videosOf(doc htlvideo.StoreDoc) []*htlvideo.Video {
	st, err := doc.Build()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated document does not build: %v", err))
	}
	return st.Videos()
}
