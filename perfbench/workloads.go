package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"weaver"
	"weaver/internal/workload"
)

// Sizes of the generated inputs. Later issues cite these workloads by name,
// so changing a size is a change of workload.
const (
	taoVertices  = 100_000
	taoOutDegree = 8

	bfsVertices = 1_000
	bfsEdges    = 3_200

	idxVertices  = 100_000
	idxGroups    = 1_024 // rare kind values, each carried by exactly idxGroupSize vertices
	idxGroupSize = 3
	idxKinds     = 16  // common kind values shared by every other vertex
	idxCities    = 100 // city values c00..c99
	idxZipfS     = 1.1
)

// workloadSpec is one benchmark input set and its operation mix.
type workloadSpec interface {
	// describe is the one-line description printed with the results.
	describe() string
	// config returns the cluster configuration; dir is an empty directory
	// the cluster may write to.
	config(dir string) weaver.Config
	// load bulk-loads the generated graph.
	load(c *weaver.Cluster) error
	// drivers returns one operation generator per client goroutine; stream
	// seeds their operation choices.
	drivers(c *weaver.Cluster, stream int64) []driver
	// warmupOps is the number of operations each client runs before the
	// window, as part of set-up.
	warmupOps() int
}

// driver generates and checks one client's operations. op runs one
// operation; a non-nil l means the run is traced.
type driver interface {
	op(l *spanLog) outcome
}

type opClass int

const (
	readOp opClass = iota
	commitOp
)

// outcome is one operation's result. err is non-nil when the call failed or
// its answer was wrong (a *wrongAnswer).
type outcome struct {
	class    opClass
	lat      time.Duration
	err      error
	attempts int           // RunTx closure invocations (commits only)
	done     time.Duration // completion, from the start of the window
}

// wrongAnswer is an answer the benchmark's checker rejected.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// workloads generates each workload's inputs from a seed.
var workloads = map[string]func(seed int64) workloadSpec{
	"tao":      func(seed int64) workloadSpec { return newTao(seed) },
	"bfs":      func(seed int64) workloadSpec { return newBFS(seed) },
	"index-rw": func(seed int64) workloadSpec { return newIndexRW(seed) },
}

// baseConfig is the set-up every workload shares: two gatekeepers, so
// refinable timestamps have concurrent vector clocks to order; four shards;
// binary wire frames on every message; LDG placement for the bulk load.
// τ, the NOP period, metrics and trace sampling keep the library defaults.
func baseConfig() weaver.Config {
	return weaver.Config{
		Gatekeepers: 2,
		Shards:      4,
		WireFrames:  true,
		Directory:   weaver.NewMappedDirectory(4),
	}
}

// clientRand is client i's generator within a stream; the same stream gives
// the same operations.
func clientRand(stream int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(stream*7919 + int64(i) + 1))
}

func bulkEdges(g *workload.Graph) []weaver.BulkEdge {
	edges := make([]weaver.BulkEdge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = weaver.BulkEdge{From: e.From, To: e.To}
	}
	return edges
}

// timed runs call inside a root span and returns its latency.
func timed(l *spanLog, name string, call func() error) (time.Duration, error) {
	root := l.root(name)
	t0 := time.Now()
	err := call()
	lat := time.Since(t0)
	l.end(root)
	return lat, err
}

// runTx runs body under Client.RunTx and times the whole call, retries
// included. Traced, each closure invocation gets a tx.closure span and each
// retry a tx.retry span covering the failed attempt's commit and back-off.
func runTx(cl *weaver.Client, l *spanLog, name string, body func(tx *weaver.Tx, l *spanLog, parent int) error) outcome {
	root := l.root(name)
	attempts := 0
	var lastEnd int64
	t0 := time.Now()
	_, err := cl.RunTx(func(tx *weaver.Tx) error {
		attempts++
		if l != nil && attempts > 1 {
			l.add("tx.retry", root, lastEnd, l.now())
		}
		s := l.begin("tx.closure", root)
		err := body(tx, l, s)
		l.end(s)
		if l != nil {
			lastEnd = l.now()
		}
		return err
	})
	lat := time.Since(t0)
	l.end(root)
	return outcome{class: commitOp, lat: lat, err: err, attempts: attempts}
}

// txGet is Tx.GetVertex inside a tx.get_vertex span.
func txGet(tx *weaver.Tx, l *spanLog, parent int, v weaver.VertexID) (*weaver.VertexData, bool, error) {
	s := l.begin("tx.get_vertex", parent)
	d, ok, err := tx.GetVertex(v)
	l.end(s)
	return d, ok, err
}

// ---- tao ----

// tao is the Table 1 TAO mix over a preferential-attachment social graph.
type tao struct {
	g *workload.Graph
}

func newTao(seed int64) *tao {
	return &tao{g: workload.Social(taoVertices, taoOutDegree, seed)}
}

func (w *tao) describe() string {
	return fmt.Sprintf("tao: Table 1 TAO mix (99.8%% one-hop reads, 0.2%% RunTx writes) on workload.Social(%d, %d): %d vertices, %d edges; uniform vertex choice; closed loop, 2 clients",
		taoVertices, taoOutDegree, len(w.g.Vertices), len(w.g.Edges))
}

func (w *tao) config(string) weaver.Config { return baseConfig() }

func (w *tao) load(c *weaver.Cluster) error {
	_, err := c.BulkLoad(w.g.Vertices, bulkEdges(w.g))
	return err
}

func (w *tao) drivers(c *weaver.Cluster, stream int64) []driver {
	ds := make([]driver, 2)
	for i := range ds {
		ds[i] = &taoDriver{w: w, cl: c.Client(), r: clientRand(stream, i), mix: workload.TAOMix()}
	}
	return ds
}

func (w *tao) warmupOps() int { return 300 }

type taoDriver struct {
	w   *tao
	cl  *weaver.Client
	r   *rand.Rand
	mix workload.Mix
}

func (d *taoDriver) op(l *spanLog) outcome {
	vs := d.w.g.Vertices
	v := vs[d.r.Intn(len(vs))]
	switch d.mix.Sample(d.r) {
	case workload.OpGetEdges:
		lat, err := timed(l, "get_edges", func() error {
			_, err := d.cl.GetEdges(v)
			return err
		})
		return outcome{class: readOp, lat: lat, err: err}
	case workload.OpCountEdges:
		lat, err := timed(l, "count_edges", func() error {
			_, err := d.cl.CountEdges(v)
			return err
		})
		return outcome{class: readOp, lat: lat, err: err}
	case workload.OpGetNode:
		var got weaver.VertexID
		var found bool
		lat, err := timed(l, "get_node", func() error {
			n, ok, err := d.cl.GetNode(v)
			if ok {
				got = n.ID
			}
			found = ok
			return err
		})
		if err == nil {
			err = checkNode(v, got, found)
		}
		return outcome{class: readOp, lat: lat, err: err}
	case workload.OpCreateEdge:
		to := vs[d.r.Intn(len(vs))]
		return runTx(d.cl, l, "create_edge", func(tx *weaver.Tx, _ *spanLog, _ int) error {
			tx.CreateEdge(v, to)
			return nil
		})
	default: // workload.OpDeleteEdge: read the vertex, delete one of its edges
		pick := d.r.Int()
		return runTx(d.cl, l, "delete_edge", func(tx *weaver.Tx, l *spanLog, parent int) error {
			vd, ok, err := txGet(tx, l, parent, v)
			if err != nil {
				return err
			}
			if !ok {
				return wrongf("delete_edge: vertex %s missing", v)
			}
			if len(vd.Edges) == 0 {
				return nil
			}
			ids := make([]weaver.EdgeID, len(vd.Edges))
			for i, e := range vd.Edges {
				ids[i] = e.ID
			}
			slices.Sort(ids)
			tx.DeleteEdge(v, ids[pick%len(ids)])
			return nil
		})
	}
}

// checkNode rejects a get_node answer that is not the requested vertex.
func checkNode(want, got weaver.VertexID, found bool) error {
	if !found {
		return wrongf("get_node(%s): not found", want)
	}
	if got != want {
		return wrongf("get_node(%s) returned %s", want, got)
	}
	return nil
}

// ---- bfs ----

// bfs is Fig 11: reachability between uniform random vertex pairs. It is
// not in BENCHMARK.json: its figures are CPU-bound, and on a shared 2-core
// box two sets of ten runs of the same code differed by 26-35% in median
// read latency, past the largest bound a gated metric may have. Run it by
// name to measure the node-program path.
type bfs struct {
	g *workload.Graph
}

func newBFS(seed int64) *bfs {
	return &bfs{g: workload.Random(bfsVertices, bfsEdges, seed)}
}

func (w *bfs) describe() string {
	return fmt.Sprintf("bfs: Fig 11 Reachable between uniform random pairs on workload.Random(%d, %d): %d vertices, %d edges; read-only; closed loop, 1 client",
		bfsVertices, bfsEdges, len(w.g.Vertices), len(w.g.Edges))
}

func (w *bfs) config(string) weaver.Config { return baseConfig() }

func (w *bfs) load(c *weaver.Cluster) error {
	_, err := c.BulkLoad(w.g.Vertices, bulkEdges(w.g))
	return err
}

func (w *bfs) drivers(c *weaver.Cluster, stream int64) []driver {
	return []driver{&bfsDriver{w: w, cl: c.Client(), r: clientRand(stream, 0)}}
}

func (w *bfs) warmupOps() int { return 10 }

type bfsDriver struct {
	w  *bfs
	cl *weaver.Client
	r  *rand.Rand
}

func (d *bfsDriver) op(l *spanLog) outcome {
	vs := d.w.g.Vertices
	src := vs[d.r.Intn(len(vs))]
	dst := vs[d.r.Intn(len(vs)-1)]
	if dst == src {
		dst = vs[len(vs)-1]
	}
	var got bool
	lat, err := timed(l, "reachable", func() error {
		var err error
		got, err = d.cl.Reachable(src, dst)
		return err
	})
	if err == nil {
		err = checkReach(d.w.g.Out, src, dst, got)
	}
	return outcome{class: readOp, lat: lat, err: err}
}

// checkReach compares a Reachable answer with a BFS over the static
// generated graph.
func checkReach(out map[weaver.VertexID][]weaver.VertexID, src, dst weaver.VertexID, got bool) error {
	if want := reachable(out, src, dst); got != want {
		return wrongf("Reachable(%s, %s) = %v, want %v", src, dst, got, want)
	}
	return nil
}

func reachable(out map[weaver.VertexID][]weaver.VertexID, src, dst weaver.VertexID) bool {
	seen := map[weaver.VertexID]bool{src: true}
	frontier := []weaver.VertexID{src}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, n := range out[v] {
			if n == dst {
				return true
			}
			if !seen[n] {
				seen[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	return false
}

// ---- index-rw ----

// indexRW mixes selective index lookups with read-modify-write transactions
// on a skewed hot set, over a durable store.
type indexRW struct {
	vertices []weaver.BulkVertex
	groups   [][]weaver.VertexID        // sorted; group g carries kind rareKind(g)
	kindOf   map[weaver.VertexID]string // kind of each rare vertex
	hot      []weaver.VertexID          // the rare vertices, hottest first under the Zipf draw
}

func newIndexRW(seed int64) *indexRW {
	r := rand.New(rand.NewSource(seed))
	w := &indexRW{kindOf: make(map[weaver.VertexID]string, idxGroups*idxGroupSize)}
	kinds := make([]string, idxVertices)
	for i := range kinds {
		kinds[i] = fmt.Sprintf("k%02d", i%idxKinds)
	}
	perm := r.Perm(idxVertices)
	for g := 0; g < idxGroups; g++ {
		var grp []weaver.VertexID
		for _, i := range perm[g*idxGroupSize : (g+1)*idxGroupSize] {
			kinds[i] = rareKind(g)
			grp = append(grp, idxID(i))
			w.kindOf[idxID(i)] = kinds[i]
		}
		slices.Sort(grp)
		w.groups = append(w.groups, grp)
		w.hot = append(w.hot, grp...)
	}
	r.Shuffle(len(w.hot), func(i, j int) { w.hot[i], w.hot[j] = w.hot[j], w.hot[i] })
	w.vertices = make([]weaver.BulkVertex, idxVertices)
	for i := range w.vertices {
		w.vertices[i] = weaver.BulkVertex{ID: idxID(i), Props: map[string]string{
			"kind": kinds[i],
			"city": city(r.Intn(idxCities)),
		}}
	}
	return w
}

func idxID(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("item/%06d", i)) }
func rareKind(g int) string       { return fmt.Sprintf("r%04d", g) }
func city(n int) string           { return fmt.Sprintf("c%02d", n) }

func (w *indexRW) describe() string {
	return fmt.Sprintf("index-rw: 50%% LookupWhere(kind == rX AND city >= c00), 50%% RunTx GetVertex + SetProperty(city) on a Zipf(%.1f) hot set of %d rare vertices; %d bulk-loaded vertices, indexes on city and kind, %d rare kind groups of %d; WAL with group-commit fsync; closed loop, 2 clients",
		idxZipfS, len(w.hot), idxVertices, idxGroups, idxGroupSize)
}

func (w *indexRW) config(dir string) weaver.Config {
	cfg := baseConfig()
	cfg.Indexes = []weaver.IndexSpec{{Key: "city"}, {Key: "kind"}}
	cfg.WALPath = filepath.Join(dir, "wal")
	return cfg
}

func (w *indexRW) load(c *weaver.Cluster) error {
	_, err := c.BulkLoadGraph(w.vertices, nil)
	return err
}

func (w *indexRW) drivers(c *weaver.Cluster, stream int64) []driver {
	ds := make([]driver, 2)
	for i := range ds {
		r := clientRand(stream, i)
		ds[i] = &indexDriver{w: w, cl: c.Client(), r: r, zipf: rand.NewZipf(r, idxZipfS, 1, uint64(len(w.hot)-1))}
	}
	return ds
}

func (w *indexRW) warmupOps() int { return 500 }

type indexDriver struct {
	w    *indexRW
	cl   *weaver.Client
	r    *rand.Rand
	zipf *rand.Zipf
}

func (d *indexDriver) op(l *spanLog) outcome {
	if d.r.Intn(2) == 0 {
		return d.lookup(l)
	}
	v := d.w.hot[d.zipf.Uint64()]
	return runTx(d.cl, l, "rmw", func(tx *weaver.Tx, l *spanLog, parent int) error {
		vd, ok, err := txGet(tx, l, parent, v)
		if err != nil {
			return err
		}
		next, err := d.w.checkRMWRead(v, vd, ok)
		if err != nil {
			return err
		}
		tx.SetProperty(v, "city", next)
		return nil
	})
}

// lookup runs the selective conjunction. Traced, it runs ExplainWhere so
// the plan's stage timings become child spans.
func (d *indexDriver) lookup(l *spanLog) outcome {
	g := d.r.Intn(idxGroups)
	wheres := []weaver.Where{
		{Key: "kind", Op: weaver.OpEq, Value: rareKind(g)},
		{Key: "city", Op: weaver.OpGe, Value: city(0)},
	}
	var ids []weaver.VertexID
	var lat time.Duration
	var err error
	if l == nil {
		t0 := time.Now()
		ids, _, err = d.cl.LookupWhere(0, wheres...)
		lat = time.Since(t0)
	} else {
		var ex weaver.Explanation
		root := l.root("explain_where")
		t0 := time.Now()
		ids, ex, err = d.cl.ExplainWhere(0, wheres...)
		lat = time.Since(t0)
		l.end(root)
		// Only the stage durations are reported; lay them back to back,
		// ending where the call ended.
		end := l.spans[root].End
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"plan.merge", ex.MergeTime}, {"plan.scatter", ex.ScatterTime}, {"plan.build", ex.PlanTime}} {
			l.add(st.name, root, end-st.d.Nanoseconds(), end)
			end -= st.d.Nanoseconds()
		}
	}
	if err == nil {
		err = checkLookup(d.w.groups[g], ids)
	}
	return outcome{class: readOp, lat: lat, err: err}
}

// checkLookup requires exactly the rare group: kind is never written and
// every city satisfies city >= c00.
func checkLookup(want, got []weaver.VertexID) error {
	if !slices.Equal(want, got) {
		return wrongf("lookup returned %v, want %v", got, want)
	}
	return nil
}

// checkRMWRead validates the transaction's read of v and returns the city
// to write: the next one in c00..c99.
func (w *indexRW) checkRMWRead(v weaver.VertexID, vd *weaver.VertexData, ok bool) (string, error) {
	if !ok {
		return "", wrongf("GetVertex(%s): not found", v)
	}
	if vd.Props["kind"] != w.kindOf[v] {
		return "", wrongf("GetVertex(%s): kind %q, want %q", v, vd.Props["kind"], w.kindOf[v])
	}
	c := vd.Props["city"]
	n, err := strconv.Atoi(c[min(1, len(c)):])
	if len(c) != 3 || c[0] != 'c' || err != nil {
		return "", wrongf("GetVertex(%s): city %q", v, c)
	}
	return city((n + 1) % idxCities), nil
}
