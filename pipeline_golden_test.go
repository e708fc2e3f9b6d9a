package graphspar_test

// Golden referee for the batch pipeline and the maintainer's rebuild
// routes: every execution plan, on every graph family, must keep
// producing the exact sparsifier, certificate bits and bookkeeping
// counts recorded in testdata/pipeline_golden.json. A refactor of the
// pipeline passes this test without touching the golden; an intended
// behaviour change regenerates it with UPDATE_GOLDEN=1 (same convention
// as UPDATE_API) and reviews the diff.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"graphspar"
	"graphspar/internal/gen"
	"graphspar/internal/lsst"
)

const pipelineGoldenPath = "testdata/pipeline_golden.json"

// goldenRun is one Sparsifier.Run row. Floats are stored as raw bit
// patterns so the comparison is exact and the file is diff-stable.
type goldenRun struct {
	Name       string `json:"name"`
	Sparsifier string `json:"sparsifier_sha256"`

	LambdaMax         string `json:"lambda_max"`
	LambdaMin         string `json:"lambda_min"`
	SigmaSqAchieved   string `json:"sigma2_achieved"`
	VerifiedLambdaMax string `json:"verified_lambda_max"`
	VerifiedLambdaMin string `json:"verified_lambda_min"`
	VerifiedCond      string `json:"verified_cond"`

	Verified     bool  `json:"verified"`
	TargetMet    bool  `json:"target_met"`
	Rounds       int   `json:"rounds"`
	Parts        int   `json:"parts"`
	CutEdges     int   `json:"cut_edges"`
	StitchedCut  int   `json:"stitched_cut"`
	RecoveredCut int   `json:"recovered_cut"`
	CoarsenDepth int   `json:"coarsen_depth"`
	LevelKept    []int `json:"level_kept"`
}

// goldenStream is one Maintain → Apply×k row: the maintained sparsifier
// and certificate after the build and after every batch. The
// maintain/refilter rows also record how often the localized re-filter
// ran, so they fail if they ever stop exercising it.
type goldenStream struct {
	Name           string        `json:"name"`
	States         []goldenState `json:"states"`
	Refilters      int           `json:"refilter_rounds,omitempty"`
	BatchedSettles int           `json:"batched_settles,omitempty"`
}

type goldenState struct {
	Sparsifier string `json:"sparsifier_sha256"`
	Cond       string `json:"cond"`
}

type pipelineGolden struct {
	Runs    []goldenRun    `json:"runs"`
	Streams []goldenStream `json:"streams"`
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// sparsifierHash is SHA-256 over the sorted (u, v, weight-bits) edge list.
func sparsifierHash(g *graphspar.Graph) string {
	es := append([]graphspar.Edge(nil), g.Edges()...)
	for i, e := range es {
		if e.U > e.V {
			es[i].U, es[i].V = e.V, e.U
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].U != es[b].U {
			return es[a].U < es[b].U
		}
		return es[a].V < es[b].V
	})
	h := sha256.New()
	var buf [24]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenGraphs(t *testing.T) []struct {
	name string
	g    *graphspar.Graph
} {
	t.Helper()
	grid, err := gen.Grid2D(48, 48, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	barbell, err := gen.Barbell(24, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graphspar.Graph
	}{{"grid48", grid}, {"sbm4x128", sbm}, {"barbell", barbell}}
}

var goldenConfigs = []struct {
	name string
	opts []graphspar.Option
}{
	{"single", []graphspar.Option{graphspar.WithMode(graphspar.ModeSingleShot)}},
	{"single+verify", []graphspar.Option{graphspar.WithMode(graphspar.ModeSingleShot), graphspar.WithVerification(0)}},
	{"shards4", []graphspar.Option{graphspar.WithShards(4)}},
	{"multilevel", []graphspar.Option{graphspar.WithMode(graphspar.ModeMultilevel)}},
	{"multilevel+levels1", []graphspar.Option{graphspar.WithMode(graphspar.ModeMultilevel), graphspar.WithCoarsenLevels(1)}},
	{"auto", nil},
}

const goldenSigma2 = 50

// buildPipelineGolden runs every row under one worker count; the golden
// file is the workers = 2 reading.
func buildPipelineGolden(t *testing.T, workers int) pipelineGolden {
	t.Helper()
	ctx := context.Background()
	var out pipelineGolden
	for _, gr := range goldenGraphs(t) {
		for _, seed := range []uint64{1, 7} {
			for _, cfg := range goldenConfigs {
				name := fmt.Sprintf("%s/seed%d/%s", gr.name, seed, cfg.name)
				opts := append([]graphspar.Option{graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(seed), graphspar.WithWorkers(workers)}, cfg.opts...)
				s, err := graphspar.New(opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := s.Run(ctx, gr.g)
				if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
					t.Fatalf("%s: %v", name, err)
				}
				row := goldenRun{
					Name:              name,
					Sparsifier:        sparsifierHash(res.Sparsifier),
					LambdaMax:         floatBits(res.LambdaMax),
					LambdaMin:         floatBits(res.LambdaMin),
					SigmaSqAchieved:   floatBits(res.SigmaSqAchieved),
					VerifiedLambdaMax: floatBits(res.VerifiedLambdaMax),
					VerifiedLambdaMin: floatBits(res.VerifiedLambdaMin),
					VerifiedCond:      floatBits(res.VerifiedCond),
					Verified:          res.Verified,
					TargetMet:         res.TargetMet,
					Rounds:            len(res.Rounds),
					Parts:             res.Parts,
					CutEdges:          res.CutEdges,
					StitchedCut:       res.StitchedCut,
					RecoveredCut:      res.RecoveredCut,
					CoarsenDepth:      res.CoarsenDepth,
					LevelKept:         []int{},
				}
				for _, lv := range res.Levels {
					row.LevelKept = append(row.LevelKept, lv.Kept)
				}
				out.Runs = append(out.Runs, row)
			}
		}
	}

	// Maintainer: WithShards(1) rebuilds single-shot, WithShards(2)
	// through the sharded plan; both routes are pinned through a build
	// and three update batches.
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]graphspar.Update{
		{graphspar.Reweight(0, 1, 2.5), graphspar.Reweight(21, 22, 0.4), graphspar.Insert(0, 399, 1.3)},
		{graphspar.Delete(0, 20), graphspar.Insert(5, 45, 0.9), graphspar.Reweight(100, 101, 3.0), graphspar.Delete(210, 211)},
		{graphspar.Insert(19, 380, 2.0), graphspar.Delete(0, 399), graphspar.Reweight(200, 220, 0.25)},
	}
	for _, shards := range []int{1, 2} {
		s, err := graphspar.New(graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(7),
			graphspar.WithShards(shards), graphspar.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Maintain(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		row := goldenStream{Name: fmt.Sprintf("maintain/shards%d", shards)}
		snap := func() {
			row.States = append(row.States, goldenState{
				Sparsifier: sparsifierHash(st.Sparsifier()),
				Cond:       floatBits(st.Cond()),
			})
		}
		snap()
		for i, b := range batches {
			if err := st.Apply(ctx, b); err != nil {
				t.Fatalf("%s: batch %d: %v", row.Name, i, err)
			}
			snap()
		}
		out.Streams = append(out.Streams, row)
	}

	// Maintainer re-filter: the batches above never push κ past the
	// safety margin, so these rows thin the sparsifier's own off-tree
	// edges (delete some, halve the rest) until the localized re-filter
	// has to re-admit candidates: batches of `small` deletions until the
	// first re-filter round, then the listed batch sizes — 64 updates
	// take the batched-settle route (all rounds, one certificate check),
	// 63 stay on the per-round route. The grid rounds admit one edge
	// each; the SBM rounds admit capped, similarity-checked multi-edge
	// batches on both routes.
	sbmThinCut, _, err := gen.SBM(4, 128, 0.15, 0.004, 13)
	if err != nil {
		t.Fatal(err)
	}
	grid32, err := gen.Grid2D(32, 32, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []struct {
		name    string
		g       *graphspar.Graph
		small   int   // deletions per batch before the first re-filter
		deletes int   // deletions in each later batch; the rest halve weights
		sizes   []int // later batch sizes
	}{
		{"grid32", grid32, 24, 6, []int{64, 64}},
		{"sbm4x128", sbmThinCut, 38, 12, []int{64, 63, 63}},
	} {
		const seed = 7
		s, err := graphspar.New(graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(seed),
			graphspar.WithShards(1), graphspar.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Maintain(ctx, gr.g)
		if err != nil {
			t.Fatal(err)
		}
		// The single-shot build's backbone, recomputed: every other
		// sparsifier edge is a kept off-tree edge.
		_, treeIDs, _, err := lsst.Extract(gr.g, lsst.MaxWeight, seed)
		if err != nil {
			t.Fatal(err)
		}
		inTree := make(map[[2]int]bool, len(treeIDs))
		for _, id := range treeIDs {
			e := gr.g.Edge(id)
			inTree[[2]int{e.U, e.V}] = true
		}
		row := goldenStream{Name: "maintain/refilter/" + gr.name}
		snap := func() {
			row.States = append(row.States, goldenState{
				Sparsifier: sparsifierHash(st.Sparsifier()),
				Cond:       floatBits(st.Cond()),
			})
		}
		thin := func(size, deletes int) {
			var b []graphspar.Update
			for _, e := range st.Sparsifier().Edges() {
				if inTree[[2]int{e.U, e.V}] {
					continue
				}
				if len(b) == size {
					break
				}
				if len(b) < deletes {
					b = append(b, graphspar.Delete(e.U, e.V))
				} else {
					b = append(b, graphspar.Reweight(e.U, e.V, e.W/2))
				}
			}
			if err := st.Apply(ctx, b); err != nil {
				t.Fatalf("%s: batch %d: %v", row.Name, len(row.States), err)
			}
			snap()
		}
		snap()
		for st.Stats().Refilters == 0 {
			if len(row.States) > 8 {
				t.Fatalf("%s: no re-filter after %d batches (stats %+v)", row.Name, len(row.States)-1, st.Stats())
			}
			thin(gr.small, gr.small)
		}
		for _, size := range gr.sizes {
			thin(size, gr.deletes)
		}
		stats := st.Stats()
		if stats.BatchedSettles == 0 || stats.Rebuilds > 0 {
			t.Fatalf("%s: want a batched settle and no rebuild over the re-filtered sparsifier, got stats %+v", row.Name, stats)
		}
		row.Refilters, row.BatchedSettles = stats.Refilters, stats.BatchedSettles
		out.Streams = append(out.Streams, row)
	}
	return out
}

// TestFacadeWorkerCountInvariant: WithWorkers is the one worker count —
// the shard pool, every plan's embedding passes, a stream's scorer — and
// none of it may move a bit: every golden row (all three plans, the
// maintainer's update schedule on both rebuild routes, both re-filter
// routes) reads the same sequentially and with more workers than the box
// has cores.
func TestFacadeWorkerCountInvariant(t *testing.T) {
	want := buildPipelineGolden(t, 1)
	got := buildPipelineGolden(t, 4)
	for i := range want.Runs {
		if !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
			t.Errorf("run %s: workers=4 %+v, workers=1 %+v", want.Runs[i].Name, got.Runs[i], want.Runs[i])
		}
	}
	for i := range want.Streams {
		if !reflect.DeepEqual(got.Streams[i], want.Streams[i]) {
			t.Errorf("stream %s: workers=4 %+v, workers=1 %+v", want.Streams[i].Name, got.Streams[i], want.Streams[i])
		}
	}
}

func TestPipelineGolden(t *testing.T) {
	got := buildPipelineGolden(t, 2)

	// One hierarchy level IS the single-shot pipeline: the degenerate
	// multilevel row must carry the same sparsifier and certificate as
	// the verified single-shot row next to it.
	byName := make(map[string]goldenRun, len(got.Runs))
	for _, r := range got.Runs {
		byName[r.Name] = r
	}
	for _, gr := range goldenGraphs(t) {
		for _, seed := range []uint64{1, 7} {
			prefix := fmt.Sprintf("%s/seed%d/", gr.name, seed)
			a, b := byName[prefix+"multilevel+levels1"], byName[prefix+"single+verify"]
			if a.Sparsifier != b.Sparsifier || a.LambdaMax != b.LambdaMax || a.LambdaMin != b.LambdaMin ||
				a.VerifiedLambdaMax != b.VerifiedLambdaMax || a.VerifiedLambdaMin != b.VerifiedLambdaMin ||
				a.VerifiedCond != b.VerifiedCond {
				t.Errorf("%s: one-level multilevel run differs from verified single-shot:\n  %+v\n  %+v", prefix, a, b)
			}
		}
	}

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGoldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", pipelineGoldenPath, len(raw))
		return
	}
	wantRaw, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatalf("missing pipeline golden (run UPDATE_GOLDEN=1 go test -run PipelineGolden .): %v", err)
	}
	if string(wantRaw) == string(raw) {
		return
	}
	var want pipelineGolden
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatalf("%s: %v", pipelineGoldenPath, err)
	}
	if len(want.Runs) != len(got.Runs) || len(want.Streams) != len(got.Streams) {
		t.Fatalf("golden has %d runs / %d streams, this tree produces %d / %d",
			len(want.Runs), len(want.Streams), len(got.Runs), len(got.Streams))
	}
	for i := range want.Runs {
		w, _ := json.Marshal(want.Runs[i])
		g, _ := json.Marshal(got.Runs[i])
		if string(w) != string(g) {
			t.Errorf("run %s drifted:\n  want %s\n  got  %s", want.Runs[i].Name, w, g)
		}
	}
	for i := range want.Streams {
		w, _ := json.Marshal(want.Streams[i])
		g, _ := json.Marshal(got.Streams[i])
		if string(w) != string(g) {
			t.Errorf("stream %s drifted:\n  want %s\n  got  %s", want.Streams[i].Name, w, g)
		}
	}
	if !t.Failed() {
		t.Errorf("%s is not byte-identical to this tree's output (formatting drift); regenerate with UPDATE_GOLDEN=1", pipelineGoldenPath)
	}
}
