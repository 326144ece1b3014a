package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"htlvideo"
)

// inputs returns every generated input of every workload for one seed, as
// bytes: the store documents, the request streams and the paper lists.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := runConfig{seed: seed, seconds: 2}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range []*servingSpec{popularSpec(cfg), adhocSpec(cfg), ingestReadSpec(cfg)} {
		var ingest []any
		if sp.ingest != nil {
			ingest = append(ingest, sp.ingest.videos)
		}
		if err := enc.Encode([]any{sp.corpus, sp.warm, sp.loadWarm, sp.stream, ingest}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range paperInputs(seed) {
		if err := enc.Encode(c.in.Lists); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestAdhocFormulasAreDistinct(t *testing.T) {
	sp := adhocSpec(runConfig{seed: 3, seconds: 2})
	seen := map[string]bool{}
	for _, q := range append(append(append([]string(nil), sp.loadWarm...), sp.stream...), sp.warm...) {
		f, err := htlvideo.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		key := f.String()
		if seen[key] {
			t.Fatalf("formula repeats: %s", key)
		}
		seen[key] = true
	}
}

func TestMixIsExact(t *testing.T) {
	m := mix(20, 3, 3, 2)
	count := map[int]int{}
	for _, k := range m {
		count[k.class]++
	}
	if count[classType2] != 3 || count[classGeneral] != 3 || count[classType1] != 14 {
		t.Fatalf("mix(20, 3, 3) = %v", count)
	}
}
