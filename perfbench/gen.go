package main

// Seeded input generation. Everything the program under test receives — the
// store documents and query strings made here, and the paper-table lists
// internal/experiments makes — comes from the run's seed; the same seed
// always yields byte-identical inputs (gen_test.go pins that).

import (
	"fmt"
	"math/rand"

	"htlvideo"
)

// objTypes are the object types placed in shots; the taxonomy grades
// person/vehicle queries against them (§3.2 subtype similarity).
var objTypes = []string{"man", "woman", "train", "car", "horse"}

var genres = []string{"western", "drama", "news"}

func taxonomy() []htlvideo.TaxEdgeDoc {
	return []htlvideo.TaxEdgeDoc{
		{Child: "man", Parent: "person"},
		{Child: "woman", Parent: "person"},
		{Child: "train", Parent: "vehicle"},
		{Child: "car", Parent: "vehicle"},
	}
}

// atomPool is the shared pool of atomic predicates every generated formula
// draws from: closed non-temporal units that the picture-retrieval system
// scores whole. Twelve atoms keep the (video, atom) space small enough that
// distinct formulas share atoms heavily.
var atomPool = []string{
	"M1", "M2", "M3", "M4",
	"genre = 'western'",
	"exists x . present(x) and type(x) = 'man'",
	"exists x . present(x) and type(x) = 'woman'",
	"exists t . present(t) and type(t) = 'train' and moving(t)",
	"exists x, y . fires_at(x, y)",
	"exists c . present(c) and type(c) = 'vehicle'",
	"exists g . present(g) and holds_gun(g)",
	"exists p . present(p) and type(p) = 'person' and height(p) > 5",
}

// videoDoc generates one video of n shots at level 2 ("shot"). A small cast
// of objects recurs across consecutive shots so temporal operators see runs,
// not isolated hits.
func videoDoc(rng *rand.Rand, id, n int) htlvideo.VideoDoc {
	vd := htlvideo.VideoDoc{ID: id, Name: fmt.Sprintf("video-%d", id), Levels: map[string]int{"shot": 2}}
	type actor struct {
		id     int64
		typ    string
		height int
	}
	cast := make([]actor, 6)
	for i := range cast {
		cast[i] = actor{id: int64(i + 1), typ: objTypes[rng.Intn(len(objTypes))], height: 1 + rng.Intn(9)}
	}
	genre := genres[rng.Intn(len(genres))]
	present := make([]bool, len(cast))
	for s := 0; s < n; s++ {
		if rng.Intn(8) == 0 {
			genre = genres[rng.Intn(len(genres))]
		}
		sd := htlvideo.SegmentDoc{Attrs: map[string]any{"genre": genre}}
		for t := 1; t <= 4; t++ {
			if rng.Intn(4) == 0 {
				sd.Attrs[fmt.Sprintf("M%d", t)] = 1.0
			}
		}
		var here []int64
		for i, a := range cast {
			// Presence persists with probability 3/4, so objects stay for runs.
			if present[i] {
				present[i] = rng.Intn(4) != 0
			} else {
				present[i] = rng.Intn(6) == 0
			}
			if !present[i] {
				continue
			}
			od := htlvideo.ObjectDoc{
				ID: a.id, Type: a.typ,
				Certainty: float64(6+rng.Intn(5)) / 10,
				Attrs:     map[string]any{"height": float64(a.height)},
			}
			if a.typ == "train" || a.typ == "car" || a.typ == "horse" {
				if rng.Intn(2) == 0 {
					od.Props = append(od.Props, "moving")
				}
			} else if rng.Intn(3) == 0 {
				od.Props = append(od.Props, "holds_gun")
			}
			sd.Objects = append(sd.Objects, od)
			here = append(here, a.id)
		}
		if len(here) >= 2 && rng.Intn(3) == 0 {
			sd.Rels = append(sd.Rels, htlvideo.RelDoc{Name: "fires_at", Subject: here[0], Object: here[1]})
		}
		vd.Segments = append(vd.Segments, sd)
	}
	return vd
}

// corpus generates a store document of count videos with ids from firstID,
// each of shots±shots/4 shots.
func corpus(rng *rand.Rand, firstID, count, shots int) htlvideo.StoreDoc {
	doc := htlvideo.StoreDoc{Taxonomy: taxonomy()}
	for i := 0; i < count; i++ {
		n := shots - shots/4 + rng.Intn(shots/2+1)
		doc.Videos = append(doc.Videos, videoDoc(rng, firstID+i, n))
	}
	return doc
}

// Formula classes the grammar emits. The shares are fixed per workload and
// recorded in the report.
const (
	classType1 = iota
	classType2
	classGeneral
)

// formulaGen composes HTL formulas over atomPool.
type formulaGen struct{ rng *rand.Rand }

func (g formulaGen) atom() string { return atomPool[g.rng.Intn(len(atomPool))] }

// temporal builds a type (1) formula of the given depth: closed atoms
// combined with and/next/eventually/until.
func (g formulaGen) temporal(depth int) string {
	if depth == 0 {
		return "(" + g.atom() + ")"
	}
	switch g.rng.Intn(5) {
	case 0:
		return "(" + g.temporal(depth-1) + " and " + g.temporal(depth-1) + ")"
	case 1:
		return "(next " + g.temporal(depth-1) + ")"
	case 2:
		return "(eventually " + g.temporal(depth-1) + ")"
	default:
		return "(" + g.temporal(depth-1) + " until " + g.temporal(depth-1) + ")"
	}
}

// objAtoms are open atomic predicates over the object variable x.
var objAtoms = []string{
	"present(x) and type(x) = 'man'",
	"present(x) and type(x) = 'woman'",
	"present(x) and type(x) = 'person'",
	"present(x) and holds_gun(x)",
	"present(x) and height(x) > 5",
}

// type2 builds a type (2) formula: an existential prefix scoping over a
// temporal operator, so evaluation runs on similarity tables joined on x.
func (g formulaGen) type2() string {
	ops := []string{"until", "and eventually", "and next"}
	op := ops[g.rng.Intn(len(ops))]
	left := "(" + objAtoms[g.rng.Intn(len(objAtoms))] + ")"
	right := "(" + objAtoms[g.rng.Intn(len(objAtoms))] + ")"
	if g.rng.Intn(2) == 0 {
		right = "(" + right + " and " + g.temporal(g.rng.Intn(2)) + ")"
	}
	return fmt.Sprintf("exists x . %s %s %s", left, op, right)
}

// general builds a formula outside the conjunctive classes (negation over a
// temporal subformula), which only the reference evaluator handles. The
// negated side uses the segment-level atoms only: the picture system
// rejects negation over object variables.
func (g formulaGen) general() string {
	neg := func() string { return "(" + atomPool[g.rng.Intn(segmentAtoms)] + ")" }
	var n string
	switch g.rng.Intn(3) {
	case 0:
		n = "(eventually " + neg() + ")"
	case 1:
		n = "(next " + neg() + ")"
	default:
		n = "(" + neg() + " until " + neg() + ")"
	}
	return "(" + g.temporal(1) + " and not " + n + ")"
}

// segmentAtoms is the number of leading atomPool entries that mention no
// object variable.
const segmentAtoms = 5

func (g formulaGen) formula(class, depth int) string {
	switch class {
	case classType2:
		return g.type2()
	case classGeneral:
		return g.general()
	default:
		return g.temporal(depth)
	}
}

// kind is one slot of a formula mix: a class and, for type (1), the
// nesting depth.
type kind struct{ class, depth int }

// mix lays out a repeating pattern of slots with exactly type2 type (2)
// and general general-HTL slots per period; the type (1) slots cycle
// through depths. Every seed gets the same structural mix in the same
// positions, so only the atoms and operators vary with the seed.
func mix(period, type2, general int, depths ...int) []kind {
	out := make([]kind, period)
	for i := range out {
		out[i] = kind{classType1, depths[i%len(depths)]}
	}
	// Spread the other classes evenly through the period.
	for j := 0; j < type2+general; j++ {
		c := classType2
		if j >= type2 {
			c = classGeneral
		}
		out[(2*j+1)*period/(2*(type2+general))] = kind{c, 1}
	}
	return out
}

// distinctFormulas draws n formulas with pairwise distinct canonical text
// (what the plan and result caches key on), the i-th of kind
// pattern[i%len(pattern)].
func distinctFormulas(rng *rand.Rand, n int, pattern []kind) []string {
	g := formulaGen{rng}
	seen := map[string]bool{}
	var out []string
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n+1000 {
			panic(fmt.Sprintf("perfbench: the formula grammar yields fewer than %d distinct formulas", n))
		}
		k := pattern[len(out)%len(pattern)]
		q := g.formula(k.class, k.depth)
		f, err := htlvideo.Parse(q)
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated formula does not parse: %q: %v", q, err))
		}
		if key := f.String(); !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// zipfStream draws n indexes into shapes with Zipf(s) popularity: index 0
// is the most popular.
func zipfStream(rng *rand.Rand, n, shapes int, s float64) []int {
	z := rand.NewZipf(rng, s, 1, uint64(shapes-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
