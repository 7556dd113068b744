package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"weaver"
	"weaver/internal/gatekeeper"
	"weaver/internal/kvstore"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/shard"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1, 0.99, 1},
		{5, 0.99, 3},     // too few for any tail: the median
		{168, 0.99, 158}, // p94.05: ten beyond
		{1000, 0.99, 990},
		{5000, 0.99, 4950},
		{1000, 0.5, 500},
		{15, 0.5, 8},
	} {
		if got := tailRank(c.n, c.q); got != c.want {
			t.Errorf("tailRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for n := 1; n <= 3000; n++ {
		r := tailRank(n, 0.99)
		if med := (n + 1) / 2; r < med || r > n {
			t.Fatalf("n=%d: rank %d outside [median %d, n]", n, r, med)
		}
		if exact := int(math.Ceil(0.99*float64(n) - 1e-9)); r != exact && r != (n+1)/2 && n-r != minBeyond {
			t.Fatalf("n=%d: rank %d is neither p99 (%d) nor ten from the top", n, r, exact)
		}
		if r > (n+1)/2 && n-r < minBeyond {
			t.Fatalf("n=%d: rank %d leaves %d samples beyond", n, r, n-r)
		}
	}
}

func TestDistTailReportsEffectivePercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: newDist must sort
	}
	d := newDist(xs)
	if got := d.median(); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	v, q := d.tail(0.99)
	if v != 190 || q != 0.95 {
		t.Errorf("tail(0.99) = %v at p%v, want 190 at p95 (ten beyond of 200)", v, q*100)
	}
}

func TestChunkTailIgnoresOneStalledChunk(t *testing.T) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = 1
		if i >= 3000 && i < 4000 {
			xs[i] = 100 // one stalled stretch, a tenth of the run
		}
	}
	if v, _ := newDist(xs).tail(0.99); v != 100 {
		t.Fatalf("pooled p99 = %v, want the stall's 100", v)
	}
	v, k, q := chunkTail(xs, 0.99)
	if v != 1 || k != maxChunks || q != 0.99 {
		t.Errorf("chunkTail = %v over %d chunks at p%v, want 1 over %d at p99", v, k, q*100, maxChunks)
	}
	// Too few samples for two chunks that each keep ten beyond p99: pooled.
	if v, k, q := chunkTail(xs[2500:4000], 0.99); k != 1 || v != 100 || q != 0.99 {
		t.Errorf("short sample: chunkTail = %v over %d chunks at p%v, want pooled 100 at p99", v, k, q*100)
	}
}

func TestHistDeltaQuantileUsesWindowOnly(t *testing.T) {
	bounds := []uint64{10, 100, 1000, 10000}
	sum := uint64(85*50 + 5*500 + 9*5000 + 20000)
	before := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{1000, 0, 0, 0, 0}, Count: 1000, Sum: 5000}
	after := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{1000, 85, 5, 9, 1}, Count: 1100, Sum: 5000 + sum}
	h := deltaHist(before, after)
	if h.n != 100 {
		t.Fatalf("delta count = %d, want 100", h.n)
	}
	if v, ok := h.quantile(0.5); !ok || v != 100 {
		t.Errorf("p50 = %v, %v; want 100 (the window never saw the <=10 bucket)", v, ok)
	}
	// 100 samples: p99 falls back to rank 90, in the (100, 1000] bucket;
	// rank 99 would have read 10000.
	if v, _ := h.quantile(0.99); v != 1000 {
		t.Errorf("p99 = %v, want 1000 under the ten-beyond rule", v)
	}
	if m, _ := h.mean(); m != float64(sum)/100 {
		t.Errorf("mean = %v, want %v", m, float64(sum)/100)
	}
	if _, ok := deltaHist(obs.HistogramSnapshot{}, obs.HistogramSnapshot{}).quantile(0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
}

func TestLayerRatioBases(t *testing.T) {
	before := snapshot{
		stats: weaver.Stats{
			Gatekeepers: []gatekeeper.Stats{{TxCommitted: 50, Nops: 100}, {TxCommitted: 50}},
			Shards:      []shard.Stats{{OrderQueries: 1, CacheHits: 1}, {ProgVisits: 10}},
			Oracle:      oracle.Stats{Queries: 5, VClockHits: 1},
			Store:       kvstore.Stats{Commits: 100, Gets: 300},
		},
		metrics: obs.Snapshot{Counters: map[string]uint64{"weaver_oracle_proactive_hits_total": 10}},
	}
	after := snapshot{
		stats: weaver.Stats{
			Gatekeepers: []gatekeeper.Stats{{TxCommitted: 150, TxConflicts: 8, TxInvalid: 2, Nops: 600}, {TxCommitted: 150}},
			Shards:      []shard.Stats{{OrderQueries: 11, CacheHits: 31}, {ProgVisits: 410}},
			Oracle:      oracle.Stats{Queries: 25, VClockHits: 6, CacheHits: 10},
			Store:       kvstore.Stats{Commits: 300, Conflicts: 10, Gets: 1300},
		},
		metrics: obs.Snapshot{Counters: map[string]uint64{
			"weaver_oracle_proactive_hits_total":   190,
			"weaver_oracle_reactive_refines_total": 20,
		}},
	}
	win := &tally{ops: 400, reads: make([]float64, 200), txOK: 200, txTries: 210}
	v := layerValues(layerInput{before: before, after: after, secs: 2, win: win, untracedReadP50: 1})
	for name, want := range map[string]float64{
		"gatekeeper.commit_success_ratio":   200.0 / 210, // committed / (committed + conflicts + invalid)
		"gatekeeper.invalid_per_1k_commits": 1000 * 2.0 / 200,
		"gatekeeper.nops_per_s":             500.0 / 2,
		"oracle.queries_per_commit":         20.0 / 200,   // oracle queries / gatekeeper commits
		"oracle.reactive_share":             20.0 / 200,   // reactive / (proactive + reactive)
		"oracle.vclock_hit_ratio":           5.0 / 20,     // vclock hits / oracle queries
		"oracle.cache_hit_ratio":            10.0 / 20,    // cache hits / oracle queries
		"kvstore.gets_per_commit":           1000.0 / 200, // store gets / store commits
		"kvstore.conflict_ratio":            10.0 / 210,   // conflicts / (commits + conflicts)
		"shard.order_queries_per_commit":    10.0 / 200,   // shard oracle queries / gatekeeper commits
		"shard.order_cache_hit_ratio":       30.0 / 40,    // cache hits / (cache hits + oracle queries)
		"shard.prog_visits_per_read":        400.0 / 200,  // visits / benchmark reads
		"tx.attempts_per_commit":            210.0 / 200,  // closure runs / committed RunTx
		"trace.overhead_ratio":              0,            // traced reads all took 0 ms
	} {
		got, ok := v[name]
		if !ok {
			t.Errorf("%s not computed", name)
			continue
		}
		if math.Abs(got.v-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got.v, want)
		}
	}
	// Empty bases report 0 and are marked not applicable.
	for _, name := range []string{"plan.shards_contacted_per_lookup", "plan.pruned_share", "gatekeeper.hop_fanout_mean", "kvstore.wal_fsync_p50_us"} {
		if got := v[name]; !got.na || got.v != 0 {
			t.Errorf("%s = %+v, want 0 marked n/a", name, got)
		}
	}
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok && d.name != "error_ratio" {
			t.Errorf("per-layer metric %s not computed", d.name)
		}
	}
}

// protobuf is a minimal encoder for building synthetic profiles.
type protobuf struct{ b []byte }

func (p *protobuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protobuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protobuf) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

func TestCPUAttributionOnSyntheticProfile(t *testing.T) {
	names := []string{"",
		"runtime.mallocgc",                           // 1
		"encoding/gob.(*Decoder).compileDec",         // 2
		"weaver/internal/nodeprog.Decode",            // 3
		"weaver/internal/shard.(*Shard).run.func1",   // 4
		"weaver/internal/core.Timestamp.Compare",     // 5
		"weaver/internal/gatekeeper.(*Gatekeeper).X", // 6
		"weaver/internal/graph.(*Store).Get",         // 7
		"weaver.(*Client).RunTx",                     // 8
		"main.main",                                  // 9
	}
	var prof protobuf
	for i, s := range names {
		prof.bytes(6, []byte(s))
		if i > 0 {
			var fn protobuf
			fn.varint(1, uint64(i)) // function id = string index
			fn.varint(2, uint64(i))
			prof.bytes(5, fn.b)
		}
	}
	loc := func(id uint64, fns ...uint64) {
		var l protobuf
		l.varint(1, id)
		for _, f := range fns {
			var line protobuf
			line.varint(1, f)
			line.varint(2, 42)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for id := uint64(1); id <= 9; id++ {
		loc(id, id)
	}
	loc(10, 7, 4) // graph.Get inlined into shard.run: innermost first
	sample := func(weight uint64, packed bool, locs ...uint64) {
		var s protobuf
		if packed {
			s.packed(1, locs...)
			s.packed(2, weight, weight*10_000_000)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, weight)
			s.varint(2, weight*10_000_000)
		}
		prof.bytes(2, s.b)
	}
	sample(3, true, 2, 3, 4, 9) // gob under nodeprog.Decode: nodeprog
	sample(2, false, 1)         // no weaver frame: runtime
	sample(1, false, 1, 9)      // benchmark's own main: runtime
	sample(1, true, 5, 6, 9)    // core under gatekeeper: other
	sample(2, false, 10)        // inlined graph frame: graph
	sample(1, true, 1, 8, 9)    // client API: other
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	shares, total, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("total = %d samples, want 10", total)
	}
	want := map[string]float64{"nodeprog": 0.3, "runtime": 0.3, "other": 0.2, "graph": 0.2}
	for _, l := range cpuLayers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
	}
	if _, _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	return x
}

func TestCPUAttributionDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no samples decoded")
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 || shares["runtime"] < 0.9 {
		t.Errorf("shares %v: want them to sum to 1, nearly all runtime (the test has no weaver frames)", shares)
	}
}

func TestCheckersRejectWrongAnswers(t *testing.T) {
	if err := checkNode("a", "a", true); err != nil {
		t.Errorf("correct get_node rejected: %v", err)
	}
	for _, err := range []error{checkNode("a", "b", true), checkNode("a", "", false)} {
		if !isWrong(err) {
			t.Errorf("wrong get_node accepted: %v", err)
		}
	}

	out := map[weaver.VertexID][]weaver.VertexID{"a": {"b"}, "b": {"c"}, "c": {"b"}}
	if err := checkReach(out, "a", "c", true); err != nil {
		t.Errorf("correct Reachable rejected: %v", err)
	}
	if err := checkReach(out, "c", "a", false); err != nil {
		t.Errorf("correct Reachable rejected: %v", err)
	}
	if !isWrong(checkReach(out, "a", "c", false)) || !isWrong(checkReach(out, "c", "a", true)) {
		t.Error("wrong Reachable answer accepted")
	}

	w := newIndexRW(3)
	grp := w.groups[7]
	if err := checkLookup(grp, append([]weaver.VertexID(nil), grp...)); err != nil {
		t.Errorf("correct lookup rejected: %v", err)
	}
	for _, got := range [][]weaver.VertexID{grp[:2], append(append([]weaver.VertexID(nil), grp...), "item/999999"), w.groups[8], nil} {
		if !isWrong(checkLookup(grp, got)) {
			t.Errorf("wrong lookup %v accepted", got)
		}
	}

	v := grp[0]
	good := &weaver.VertexData{ID: v, Props: map[string]string{"kind": w.kindOf[v], "city": "c99"}}
	if next, err := w.checkRMWRead(v, good, true); err != nil || next != "c00" {
		t.Errorf("checkRMWRead(c99) = %q, %v; want c00", next, err)
	}
	for _, bad := range []*weaver.VertexData{
		{ID: v, Props: map[string]string{"kind": "k01", "city": "c01"}},
		{ID: v, Props: map[string]string{"kind": w.kindOf[v], "city": "x"}},
		{ID: v, Props: map[string]string{"kind": w.kindOf[v]}},
	} {
		if _, err := w.checkRMWRead(v, bad, true); !isWrong(err) {
			t.Errorf("bad read %v accepted", bad.Props)
		}
	}
	if _, err := w.checkRMWRead(v, nil, false); !isWrong(err) {
		t.Error("missing vertex accepted")
	}
}

func TestIndexRWInputsFollowTheSeed(t *testing.T) {
	a, b, c := newIndexRW(5), newIndexRW(5), newIndexRW(6)
	if a.hot[0] != b.hot[0] || a.groups[100][0] != b.groups[100][0] || a.vertices[9].Props["city"] != b.vertices[9].Props["city"] {
		t.Error("same seed gave different inputs")
	}
	if a.hot[0] == c.hot[0] && a.groups[100][0] == c.groups[100][0] {
		t.Error("different seeds gave the same inputs")
	}
	seen := map[weaver.VertexID]bool{}
	for g, grp := range a.groups {
		if len(grp) != idxGroupSize {
			t.Fatalf("group %d has %d vertices", g, len(grp))
		}
		for _, v := range grp {
			if a.kindOf[v] != rareKind(g) || seen[v] {
				t.Fatalf("group %d: vertex %s kind %q (seen before: %v)", g, v, a.kindOf[v], seen[v])
			}
			seen[v] = true
		}
	}
	if len(a.hot) != idxGroups*idxGroupSize || len(seen) != len(a.hot) {
		t.Errorf("hot set has %d vertices, %d distinct rare vertices", len(a.hot), len(seen))
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metric
// tables printed by the benchmark in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bj.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && *g.Bound != d.bound {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the benchmark", d.name, *g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
