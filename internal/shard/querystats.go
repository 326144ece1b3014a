package shard

// Fleet-wide workload analytics: the coordinator's /debug/queries fans out to
// every member's own /debug/queries and merges the per-plan-key aggregates
// bucketwise (querystats.Merge), so an operator sees one pg_stat_statements
// view of the whole partitioned store. Every shard compiles the same
// canonical formula text and the serving layer runs one store query per
// request, so each plan key's merged call count is the shard count times
// the requests the coordinator scattered (without hedges). Shards hold
// disjoint video partitions, so the merged videos evaluated equal what a
// single unsharded store would have recorded for the same workload.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"htlvideo/internal/obs/querystats"
)

// queryStatsTimeout bounds the /debug/queries fan-out; stats collection must
// never hang the debug surface on a dead shard.
const queryStatsTimeout = 5 * time.Second

// ShardStatsStatus reports one member's contribution to a merged
// /debug/queries document.
type ShardStatsStatus struct {
	Shard string `json:"shard"`
	// Entries is how many plan keys the shard reported; Error is set (and
	// Entries zero) when the shard could not be reached.
	Entries int    `json:"entries"`
	Error   string `json:"error,omitempty"`
}

// QueryStats collects every member's per-plan-key workload statistics and
// merges them into one snapshot. Unreachable shards are reported in the
// status slice and simply contribute nothing — analytics collection is
// best-effort and never fails the endpoint. The fan-out is plain parallel
// GETs outside the breaker/retry machinery: a read of statistics must not
// consume the query path's failure budget.
func (c *Coordinator) QueryStats(ctx context.Context) (querystats.Snapshot, []ShardStatsStatus) {
	members := c.snapshotMembers()
	snaps := make([]querystats.Snapshot, len(members))
	statuses := make([]ShardStatsStatus, len(members))
	var wg sync.WaitGroup
	for i, mb := range members {
		statuses[i].Shard = mb.name
		wg.Add(1)
		go func(i int, mb member) {
			defer wg.Done()
			snap, err := c.fetchQueryStats(ctx, mb)
			if err != nil {
				statuses[i].Error = err.Error()
				return
			}
			snaps[i] = snap
			statuses[i].Entries = len(snap.Entries)
		}(i, mb)
	}
	wg.Wait()
	return querystats.Merge(snaps...), statuses
}

// fetchQueryStats is one member's GET /debug/queries.
func (c *Coordinator) fetchQueryStats(ctx context.Context, mb member) (querystats.Snapshot, error) {
	var snap querystats.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mb.url+"/debug/queries", nil)
	if err != nil {
		return snap, err
	}
	hr, err := c.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hr.Body, 16<<20))
	if err != nil {
		return snap, err
	}
	if hr.StatusCode != http.StatusOK {
		return snap, &httpError{status: hr.StatusCode, msg: http.StatusText(hr.StatusCode)}
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// queryStatsDoc is the coordinator's /debug/queries payload: the merged
// per-plan-key snapshot plus each member's contribution.
type queryStatsDoc struct {
	querystats.Snapshot
	Shards []ShardStatsStatus `json:"shards"`
}

// handleQueryStats serves the merged fleet view, honoring the same
// ?sort=calls|total|mean and ?limit=N a single store's endpoint takes.
func (c *Coordinator) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), queryStatsTimeout)
	defer cancel()
	merged, statuses := c.QueryStats(ctx)
	if by := r.URL.Query().Get("sort"); by != "" {
		querystats.SortEntries(merged.Entries, by)
		merged.SortedBy = by
	}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if n, err := strconv.Atoi(ls); err == nil && n >= 0 && n < len(merged.Entries) {
			merged.Entries = merged.Entries[:n]
		}
	}
	writeJSON(w, http.StatusOK, queryStatsDoc{Snapshot: merged, Shards: statuses})
}

// mergedQueryStats is the dashboard's snapshot source: a bounded best-effort
// collection (failures just shrink the view).
func (c *Coordinator) mergedQueryStats() querystats.Snapshot {
	ctx, cancel := context.WithTimeout(context.Background(), queryStatsTimeout)
	defer cancel()
	merged, _ := c.QueryStats(ctx)
	return merged
}
