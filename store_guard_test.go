package htlvideo

// Tests for the per-video guard hook (WithVideoGuard): skips, retries and
// cancellation surface per video, guarded results agree with unguarded ones,
// and a result with a skip or a failure never enters the result cache.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// guardClip is one small video like resilienceStore's, for stores built
// elsewhere.
func guardClip(id int) *Video {
	v := NewVideo(id, fmt.Sprintf("clip %d", id), map[string]int{"shot": 2})
	v.Root.AppendChild(Seg().Attr("M1", Int(1)).Build())
	v.Root.AppendChild(Seg().Attr("M1", Int(1)).Attr("M2", Int(1)).Build())
	v.Root.AppendChild(Seg().Attr("M2", Int(1)).Build())
	return v
}

// TestVideoGuardSkip: a declined video is reported as its *VideoError
// wrapping ErrVideoSkipped, counted as skipped (not failed), the other
// videos' lists are those of an unguarded query, and nothing is cached.
func TestVideoGuardSkip(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	want, err := s.Query("M1 until M2", WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	skip2 := WithVideoGuard(func(ctx context.Context, id int, eval func(context.Context) error) error {
		if id == 2 {
			return ErrVideoSkipped
		}
		return eval(ctx)
	})
	before := s.Stats().Pool
	res, err := s.Query("M1 until M2", WithPartialResults(), skip2)
	if err != nil {
		t.Fatal(err)
	}
	var ve *VideoError
	if len(res.Errors) != 1 || !errors.As(res.Errors[0], &ve) || ve.VideoID != 2 || !errors.Is(ve, ErrVideoSkipped) {
		t.Fatalf("Errors = %v, want video 2 skipped", res.Errors)
	}
	if len(res.PerVideo) != 2 || resultFingerprint(t, &Results{PerVideo: map[int]SimList{1: res.PerVideo[1], 3: res.PerVideo[3]}}) !=
		resultFingerprint(t, &Results{PerVideo: map[int]SimList{1: want.PerVideo[1], 3: want.PerVideo[3]}}) {
		t.Fatalf("surviving lists differ from the unguarded query's: %v", res.PerVideo)
	}
	after := s.Stats().Pool
	if after.VideosSkipped-before.VideosSkipped != 1 || after.VideosFailed != before.VideosFailed {
		t.Fatalf("pool stats moved %+v -> %+v, want one skip and no failure", before, after)
	}
	if got := s.Stats().ResultCache.Size; got != 0 {
		t.Fatalf("a result with a skipped video was cached (size %d)", got)
	}
	// Without WithPartialResults the skip fails the query, naming the video.
	if _, err := s.Query("M1 until M2", skip2); !errors.Is(err, ErrVideoSkipped) {
		t.Fatalf("err = %v, want the skip joined into the query error", err)
	}
}

// TestVideoGuardRetries: a guard that retries after a failure sees eval run
// again; the successful attempt's list is the video's result, and a failure
// the guard gives up on is the video's error and leaves no cache entry.
func TestVideoGuardRetries(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	want, err := s.Query("M1", WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	errFlaky := errors.New("flaky")
	var calls atomic.Int64
	retryOnce := func(fail func(id, attempt int) bool) QueryOption {
		return WithVideoGuard(func(ctx context.Context, id int, eval func(context.Context) error) error {
			var err error
			for attempt := 1; attempt <= 2; attempt++ {
				calls.Add(1)
				if fail(id, attempt) {
					err = errFlaky
					continue
				}
				if err = eval(ctx); err == nil {
					return nil
				}
			}
			return err
		})
	}
	res, err := s.Query("M1", WithPartialResults(), retryOnce(func(id, attempt int) bool { return id == 1 && attempt == 1 }))
	if err != nil || len(res.Errors) != 0 {
		t.Fatalf("retried query: err %v, errors %v", err, res.Errors)
	}
	if calls.Load() != 4 {
		t.Fatalf("guard attempts = %d, want 4 (video 1 twice)", calls.Load())
	}
	if resultFingerprint(t, res) != resultFingerprint(t, want) {
		t.Fatal("guarded result differs from the unguarded one")
	}
	s.DisableResultCache()
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	res, err = s.Query("M1", WithPartialResults(), retryOnce(func(id, _ int) bool { return id == 3 }))
	if err != nil {
		t.Fatal(err)
	}
	var ve *VideoError
	if len(res.Errors) != 1 || !errors.As(res.Errors[0], &ve) || ve.VideoID != 3 || !errors.Is(ve, errFlaky) {
		t.Fatalf("Errors = %v, want video 3's last failure", res.Errors)
	}
	if got := s.Stats().ResultCache.Size; got != 0 {
		t.Fatalf("a result with a failed video was cached (size %d)", got)
	}
}

// TestVideoGuardCancellationIsPerVideo: under a guard the query's deadline
// fails only the videos it cut off — whether mid-evaluation or never
// started — and the videos that finished keep their lists.
func TestVideoGuardCancellationIsPerVideo(t *testing.T) {
	s := resilienceStore(t, 4)
	stall2 := WithVideoGuard(func(ctx context.Context, id int, eval func(context.Context) error) error {
		if id == 2 {
			<-ctx.Done()
			return ctx.Err()
		}
		return eval(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// One worker: video 1 finishes, video 2 stalls into the deadline, and
	// videos 3 and 4 start after it, if at all.
	res, err := s.QueryCtx(ctx, "M1", WithPartialResults(), WithParallelism(1), stall2)
	if err != nil {
		t.Fatalf("guarded query failed whole: %v", err)
	}
	if _, ok := res.PerVideo[1]; !ok {
		t.Fatalf("PerVideo = %v, want video 1's list kept", res.PerVideo)
	}
	if len(res.PerVideo)+len(res.Errors) != 4 {
		t.Fatalf("%d lists + %d errors, want every video accounted for", len(res.PerVideo), len(res.Errors))
	}
	for _, e := range res.Errors {
		if !errors.Is(e, context.DeadlineExceeded) {
			t.Fatalf("error %v, want DeadlineExceeded", e)
		}
	}
	var ve *VideoError
	if len(res.Errors) == 0 || !errors.As(res.Errors[0], &ve) || ve.VideoID != 2 {
		t.Fatalf("Errors = %v, want video 2 cut off first", res.Errors)
	}
	// Unguarded, the same deadline still fails the query as a whole.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.QueryCtx(ctx2, "M1", WithPartialResults()); !errors.Is(err, context.Canceled) {
		t.Fatalf("unguarded cancelled query: err = %v, want Canceled", err)
	}
}
