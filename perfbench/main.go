// Command perfbench is the repository's benchmark. It runs one workload
// in-process through the public weaver API and prints its metrics, the last
// line being one JSON object:
//
//	perfbench --workload tao|bfs|index-rw --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off: it runs `parts` child processes one after another, each of which
// sets the cluster up and measures a closed-loop window of S/parts seconds,
// and pools what they measured. With --trace 1 it sets up once in its own
// process, measures an untraced window of S seconds, then a traced window
// of the same length — spans around every call, Stats()/Metrics() deltas,
// a CPU profile — and reports the per-layer metrics. Every answer is
// checked; a wrong one counts as a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// parts is how many child processes an untraced run spreads its window
// over. On a small shared box most of the run-to-run difference is per
// process (memory layout, GC pacing settling into a different rhythm), so
// pooling several processes steadies every figure. Each child sets up once;
// setup_s is the median of their set-ups.
const parts = 5

type runOpts struct {
	name    string
	seed    int64
	window  time.Duration
	workdir string
}

func main() {
	var (
		name    = flag.String("workload", "", "tao, bfs or index-rw")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Int("seconds", 10, "measured time")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for logs, spans and profiles")
		part    = flag.Int("part", -1, "internal: run as child process number part of an untraced run")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *part >= parts {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0 or 1")
		os.Exit(2)
	}
	gen, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want tao, bfs or index-rw)\n", *name)
		os.Exit(2)
	}
	o := runOpts{name: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, workdir: *workdir}
	var out any
	var err error
	switch {
	case *part >= 0:
		o.window /= parts
		out, err = runPart(gen(*seed), o, *part)
	case *trace == 1:
		out, err = runTraced(gen(*seed), o, os.Stdout)
	default:
		out, err = runParent(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// newResult fills a result with every metric of defs.
func newResult(t *tally, defs []metricDef, vals map[string]value) (*result, error) {
	res := &result{Correct: t.wrong == 0, Attempted: t.ops, Failed: t.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v.v, Unit: d.unit}
	}
	return res, nil
}

// value is one computed metric. na marks a ratio with an empty base or a
// timing with no samples in this workload; it is reported as 0. note
// carries the sample count or base for the printed table.
type value struct {
	v    float64
	na   bool
	note string
}

// printTable prints every metric of defs by name, with its unit, the
// sample count or ratio base behind it, its definition and, per layer, the
// end-to-end metric it should move.
func printTable(out io.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(out, "-- %s --\n", title)
	for _, d := range defs {
		v := vals[d.name]
		shown := fmt.Sprintf("%.6g", v.v)
		if v.na {
			shown = "n/a"
		}
		about := d.def
		if d.moves != "" {
			about += " | moves " + d.moves
		}
		fmt.Fprintf(out, "%-34s %14s %-6s %-34s %s\n", d.name, shown, d.unit, v.note, about)
	}
}

// reportFailures tells standard error about failed operations.
func reportFailures(t *tally) {
	switch {
	case t.wrong > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers among %d failures, e.g. %v\n", t.wrong, t.failed, t.firstErrs)
	case t.failed > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, e.g. %v\n", t.failed, t.ops, t.firstErrs)
	}
}
