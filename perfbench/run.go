package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"weaver"
)

// tally accumulates operation outcomes.
type tally struct {
	reads, commits []float64 // ms, us
	ops            int
	failed, wrong  int
	txOK, txTries  int
	firstErrs      []string
}

func (t *tally) add(outs []outcome) {
	for _, o := range outs {
		t.ops++
		if o.err != nil {
			t.failed++
			if isWrong(o.err) {
				t.wrong++
			}
			t.noteErr(o.err.Error())
			continue
		}
		switch o.class {
		case readOp:
			t.reads = append(t.reads, float64(o.lat.Nanoseconds())/1e6)
		case commitOp:
			t.commits = append(t.commits, float64(o.lat.Nanoseconds())/1e3)
			t.txOK++
			t.txTries += o.attempts
		}
	}
}

func (t *tally) noteErr(e string) {
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, e)
	}
}

// count adds o's operation and failure counts (not its latencies) to t.
func (t *tally) count(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.firstErrs {
		t.noteErr(e)
	}
}

// setupTimes splits one set-up into its phases.
type setupTimes struct{ open, load, warmup time.Duration }

// cluster is one set-up: the open cluster, its client drivers and the
// directory it writes to.
type cluster struct {
	c       *weaver.Cluster
	drivers []driver
	dir     string
}

func (cl *cluster) close() error {
	err := cl.c.Close()
	if rmErr := os.RemoveAll(cl.dir); err == nil {
		err = rmErr
	}
	return err
}

// setUp opens a cluster, bulk-loads the workload and runs the warm-up
// operations, timing each phase. Warm-up outcomes are checked like any
// others and land in warm.
func setUp(w workloadSpec, dir string, stream int64, warm *tally) (*cluster, setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	c, err := weaver.Open(w.config(dir))
	if err != nil {
		return nil, st, fmt.Errorf("open: %w", err)
	}
	cl := &cluster{c: c, dir: dir}
	t1 := time.Now()
	if err := w.load(c); err != nil {
		cl.close()
		return nil, st, fmt.Errorf("bulk load: %w", err)
	}
	t2 := time.Now()
	cl.drivers = w.drivers(c, stream)
	var wg sync.WaitGroup
	outs := make([][]outcome, len(cl.drivers))
	for i, d := range cl.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < w.warmupOps(); n++ {
				outs[i] = append(outs[i], d.op(nil))
			}
		}()
	}
	wg.Wait()
	t3 := time.Now()
	for _, o := range outs {
		warm.add(o)
	}
	return cl, setupTimes{open: t1.Sub(t0), load: t2.Sub(t1), warmup: t3.Sub(t2)}, nil
}

// runWindow runs every driver in a closed loop until the window ends and
// returns the outcomes, latencies in completion order, and the window's
// length (to the last completion).
func runWindow(ds []driver, d time.Duration, logs []*spanLog) (*tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	outs := make([][]outcome, len(ds))
	var wg sync.WaitGroup
	for i, dr := range ds {
		var l *spanLog
		if logs != nil {
			l = logs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := dr.op(l)
				o.done = time.Since(start)
				outs[i] = append(outs[i], o)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := slices.Concat(outs...)
	slices.SortFunc(all, func(a, b outcome) int { return cmp.Compare(a.done, b.done) })
	t := &tally{}
	t.add(all)
	return t, elapsed
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// partResult is what one untraced measurement hands back: a child process
// of an untraced run, or the untraced window of a traced run.
type partResult struct {
	Describe string     `json:"describe"`
	Setup    [3]float64 `json:"setup_s"`  // open, load, warm-up
	Reads    []float64  `json:"reads_ms"` // window reads, completion order
	WinOps   int        `json:"window_ops"`
	Elapsed  float64    `json:"window_s"`
	HeapMB   float64    `json:"heap_mb"`
	Ops      int        `json:"ops"` // every checked operation: warm-up and window
	Failed   int        `json:"failed"`
	Wrong    int        `json:"wrong"`
	Errs     []string   `json:"errors,omitempty"`
}

func (p *partResult) counts() *tally {
	return &tally{ops: p.Ops, failed: p.Failed, wrong: p.Wrong, firstErrs: p.Errs}
}

// measure sets the cluster up and measures one untraced window. The cluster
// is returned open.
func measure(w workloadSpec, o runOpts, stream int64) (*partResult, *cluster, error) {
	all := &tally{}
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	cl, st, err := setUp(w, dir, stream, all)
	if err != nil {
		return nil, nil, err
	}
	// Every measured phase starts from a collected heap, so a collection of
	// the bulk-loaded heap does not land in it at a random point.
	runtime.GC()
	win, elapsed := runWindow(cl.drivers, o.window, nil)
	all.count(win)
	p := &partResult{
		Describe: w.describe(),
		Setup:    [3]float64{st.open.Seconds(), st.load.Seconds(), st.warmup.Seconds()},
		Reads:    win.reads,
		WinOps:   win.ops,
		Elapsed:  elapsed.Seconds(),
		HeapMB:   liveHeapMB(),
	}
	p.Ops, p.Failed, p.Wrong, p.Errs = all.ops, all.failed, all.wrong, all.firstErrs
	return p, cl, nil
}

// stream numbers the clients' operation streams: one per child process and
// one for the traced run, all derived from the seed.
func stream(seed int64, part int) int64 { return seed*64 + int64(part) }

// runPart is one child process of an untraced run.
func runPart(w workloadSpec, o runOpts, part int) (*partResult, error) {
	p, cl, err := measure(w, o, stream(o.seed, part))
	if err != nil {
		return nil, err
	}
	return p, cl.close()
}

// runParent runs the child processes one after another and pools what they
// measured into the end-to-end metrics.
func runParent(o runOpts, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ps []*partResult
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", o.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(int(o.window/time.Second)), "--trace", "0",
			"--workdir", o.workdir, "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		p := &partResult{}
		if err := json.Unmarshal(lastLine(stdout), p); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		ps = append(ps, p)
	}
	all := &tally{}
	for _, p := range ps {
		all.count(p.counts())
	}
	reportFailures(all)
	vals := endToEndValues(ps, all)
	fmt.Fprintf(out, "%s\nseed %d, %s measured over %d processes, tracing off\n", ps[0].Describe, o.seed, o.window, parts)
	printTable(out, "end to end", endToEnd, vals)
	return newResult(all, endToEnd, vals)
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return b
}

func errorRatio(t *tally) value {
	r, _ := ratio(float64(t.failed), float64(t.ops))
	return value{v: r, note: fmt.Sprintf("%d of %d", t.failed, t.ops)}
}

// endToEndValues pools the parts' samples into the end-to-end metrics.
// Latencies keep each part's completion order, parts one after another.
func endToEndValues(ps []*partResult, all *tally) map[string]value {
	var setups, heaps, reads []float64
	var ops int
	var windowSecs float64
	for _, p := range ps {
		setups = append(setups, p.Setup[0]+p.Setup[1]+p.Setup[2])
		heaps = append(heaps, p.HeapMB)
		reads = append(reads, p.Reads...)
		ops += p.WinOps
		windowSecs += p.Elapsed
	}
	er := errorRatio(all)
	return map[string]value{
		"setup_s":       {v: newDist(setups).median(), note: fmt.Sprintf("median of %d set-ups", len(setups))},
		"ops_per_s":     {v: float64(ops) / windowSecs, note: fmt.Sprintf("%d ops in %.3fs", ops, windowSecs)},
		"read_p50_ms":   medianValue(reads),
		"read_p99_ms":   tailValue(reads, 0.99),
		"success_ratio": {v: 1 - er.v, note: "failed " + er.note},
		"heap_mb":       {v: newDist(heaps).median(), note: fmt.Sprintf("median of %d", len(heaps))},
	}
}

func medianValue(xs []float64) value {
	if len(xs) == 0 {
		return value{na: true, note: "no samples"}
	}
	return value{v: newDist(xs).median(), note: fmt.Sprintf("n=%d", len(xs))}
}

func tailValue(xs []float64, q float64) value {
	if len(xs) == 0 {
		return value{na: true, note: "no samples"}
	}
	v, k, qe := chunkTail(xs, q)
	return value{v: v, note: fmt.Sprintf("p%.2f of n=%d, median of %d", qe*100, len(xs), k)}
}

// runTraced measures an untraced window and then a traced one on the same
// cluster, and reports the per-layer metrics.
func runTraced(w workloadSpec, o runOpts, out io.Writer) (*result, error) {
	p, cl, err := measure(w, o, stream(o.seed, parts))
	if err != nil {
		return nil, err
	}
	defer cl.close()
	all := p.counts()
	fmt.Fprintf(out, "%s\nseed %d, window %s, tracing off\n", w.describe(), o.seed, o.window)
	printTable(out, "end to end", endToEnd, endToEndValues([]*partResult{p}, all))

	st := setupTimes{open: secs(p.Setup[0]), load: secs(p.Setup[1]), warmup: secs(p.Setup[2])}
	tr, err := tracedWindow(cl, o, st, newDist(p.Reads).median())
	if err != nil {
		return nil, err
	}
	all.count(tr.tally)
	reportFailures(all)
	tr.values["error_ratio"] = errorRatio(all)
	fmt.Fprintf(out, "traced window: %s; spans in %s, CPU profile in %s\n", o.window, tr.spanPath, tr.profPath)
	printTable(out, "per layer", perLayer, tr.values)
	return newResult(all, perLayer, tr.values)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traced is the result of the traced window.
type traced struct {
	tally              *tally
	values             map[string]value
	spanPath, profPath string
}

// tracedWindow runs a second window with spans on and a CPU profile, and
// computes the per-layer metrics from the deltas across it.
func tracedWindow(cl *cluster, o runOpts, st setupTimes, untracedReadP50 float64) (*traced, error) {
	epoch := time.Now()
	logs := make([]*spanLog, len(cl.drivers))
	for i := range logs {
		logs[i] = newSpanLog(epoch, i)
	}
	before := takeSnapshot(cl.c)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	lag := startLagSampler(cl.c, 20*time.Millisecond)
	win, elapsed := runWindow(cl.drivers, o.window, logs)
	lagMax := lag.stop()
	pprof.StopCPUProfile()
	after := takeSnapshot(cl.c)

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	in := layerInput{
		before: before, after: after, secs: elapsed.Seconds(), win: win, logs: logs,
		lagMax: lagMax, cpu: shares, cpuSamples: samples, setup: st,
		untracedReadP50: untracedReadP50,
	}
	tr := &traced{tally: win, values: layerValues(in)}

	base := fmt.Sprintf("%s-seed%d", o.name, o.seed)
	tr.spanPath = filepath.Join(o.workdir, "spans-"+base+".jsonl")
	tr.profPath = filepath.Join(o.workdir, "cpu-"+base+".pprof")
	if err := writeSpans(tr.spanPath, logs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(tr.profPath, prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	return tr, nil
}

// lagSampler polls weaver_gk_apply_lag during the traced window.
type lagSampler struct {
	stopc chan struct{}
	done  chan int64
}

func startLagSampler(c *weaver.Cluster, every time.Duration) *lagSampler {
	s := &lagSampler{stopc: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		var max int64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := c.Metrics().Gauges["weaver_gk_apply_lag"]; v > max {
				max = v
			}
			select {
			case <-s.stopc:
				s.done <- max
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the largest lag seen.
func (s *lagSampler) stop() int64 {
	close(s.stopc)
	return <-s.done
}
