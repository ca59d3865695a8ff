// Command kvbench is the repository's benchmark of the sharded Pangolin
// KV service. One run sets up a fresh set behind an in-process server on
// loopback, drives one workload against it, crashes and recovers the set,
// checks every output against a model, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	go run . --workload update-pipelined --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it replays the workload's seeded op stream
// through each layer's public entry point (server.Client, shard.Set,
// pangolinstore.Store, pangolin.Pool) with spans around the calls, reads
// the layers' counters before and after, and writes the spans to a file
// at exit. README.md lists the workloads, metrics and their bases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	work := flag.String("dir", filepath.Join(".bench_build", "kvbench"), "scratch directory for set files and span output")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "kvbench: bad arguments (workload %q, seconds %v, trace %d): %v\n", *name, *secs, *trace, err)
		return 2
	}
	b := execute(w, *seed, *secs, *trace == 1, *work)
	attempted, failed := b.tally.attempted.Load(), b.tally.failed.Load()
	detail, _ := json.Marshal(b.report.detail)
	fmt.Println(string(detail))
	out, _ := json.Marshal(result{
		Correct:   failed == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   b.report.metrics,
	})
	fmt.Println(string(out))
	if failed != 0 {
		fmt.Fprintf(os.Stderr, "kvbench: %d of %d operations failed: %v\n", failed, attempted, b.tally.first)
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload, end to end or traced, with its scratch
// files under work, and returns the finished run; any error is counted
// as a failure.
func execute(w workload, seed int64, secs float64, traced bool, work string) *bench {
	b := &bench{w: w, seed: seed, secs: secs, report: newReport(), start: time.Now()}
	err := os.MkdirAll(work, 0o777)
	if err == nil {
		b.dir, err = os.MkdirTemp(work, "run-")
	}
	if err == nil {
		defer os.RemoveAll(b.dir)
		if traced {
			b.tr = newTracer()
			err = b.layers()
			if err == nil {
				path := filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
				if err = b.tr.write(path); err == nil {
					b.report.detail["spans_file"] = path
				}
			}
		} else {
			err = b.endToEnd()
		}
	}
	if err != nil {
		b.tally.fail(err)
	}
	b.report.detail["failures"] = b.tally.first
	return b
}

// logf prints a progress line with the time since start to stderr.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvbench %s %6.2fs: %s\n", b.w.name, time.Since(b.start).Seconds(), fmt.Sprintf(format, args...))
}

// report is a run's output: metrics by name with units, and a detail
// object with sample counts and inputs printed on the line before.
type report struct {
	metrics map[string]metric
	detail  map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// endToEnd measures the user-visible metrics with tracing off.
func (b *bench) endToEnd() error {
	l, setupS, err := b.setupTimed(setupReps)
	if err != nil {
		return err
	}
	ct := newClientTarget(l.clients)
	warm, closed, open := b.durations()
	b.logf("setup done")
	b.closedLoop(ct, "warm", warm, "")
	b.collect()
	_, _, rates := b.closedLoop(ct, "closed", closed, "")
	b.collect()
	res := b.openLoop(ct, open, b.w.rate)
	b.collect()
	st := l.set.Stats()
	b.logf("open loop done")
	set, recoverS, err := b.crashRecover(l, recoverReps)
	if err != nil {
		return err
	}
	b.logf("recovered")
	b.verify(set)
	set.Abandon()
	b.logf("verified")

	r := b.report
	r.set("setup_s", "s", setupS)
	r.set("ops_per_s", "1/s", median(append([]float64(nil), rates...)))
	// Open-loop latencies are reported beside the metrics: on the shared
	// 2-processor machine the bounds were set on, the GET and PUT p50 of
	// update-pipelined spread over half their median across ten runs,
	// and only the ordered structure serves scans at a usable rate.
	for k := opKind(0); k < numKinds; k++ {
		if len(res.lat[k]) > 0 {
			r.detail[k.String()+"_p50_us"] = percentile(res.lat[k], 0.50)
			r.detail[k.String()+"_p99_us"] = percentile(res.lat[k], 0.99)
		}
	}
	r.set("recover_s", "s", recoverS)
	live := b.model.live()
	r.set("space_amp", "B/B", ratio(float64(st.Bytes), float64(live*16)))
	r.set("mem_mb", "MiB", float64(b.heapPeak)/(1<<20))
	samples := map[string]int{}
	for k := opKind(0); k < numKinds; k++ {
		samples[k.String()] = len(res.lat[k])
	}
	r.detail["workload"] = b.w.name
	r.detail["open_samples"] = samples
	r.detail["open_offered_per_s"] = b.w.rate
	r.detail["open_late_p99_us"] = percentile(res.late, 0.99)
	r.detail["closed_ops_per_s_windows"] = rates
	r.detail["live_pairs"] = live
	return nil
}

// durations splits the run's measured time: a short warm-up, then three
// quarters closed loop, which ops_per_s comes from, and a quarter open
// loop, which only feeds space_amp and the detail latencies.
func (b *bench) durations() (warm, closed, open time.Duration) {
	total := time.Duration(b.secs * float64(time.Second))
	return min(2*time.Second, total/10), total * 3 / 4, total / 4
}
