// Command perfbench is the repository's end-to-end benchmark. It builds
// protein similarity graphs (PSGs) and serves many-vs-DB query batches
// through the public pastis API, checks every output, and prints the
// metrics named in BENCHMARK.json as one JSON line on standard output.
// README.md gives the workloads, the metrics and the load model.
//
//	perfbench --workload avv-exact-xd --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around calls into each layer and prints the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // directory for index files; emptied at exit
	size     string // "full" or "tiny" (the benchmark's own tests)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, log io.Writer) (*report, error){
	"avv-exact-xd": func(o options, log io.Writer) (*report, error) { return runAVV(o, avvExactXD, log) },
	"avv-subs-tcp": func(o options, log io.Writer) (*report, error) { return runAVV(o, avvSubsTCP, log) },
	"query-serve":  runQuery,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/scratch", "scratch directory")
	flag.Parse()
	if (trace != 0 && trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.size = "full"
	if err := benchmark(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints its report as the last line of
// out; diagnostics go to log.
func benchmark(o options, out, log io.Writer) error {
	rep, err := measure(o, log)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure validates the options, runs the workload in a fresh scratch
// directory and returns its report.
func measure(o options, log io.Writer) (*report, error) {
	run, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.size != "full" && o.size != "tiny" {
		return nil, fmt.Errorf("unknown size %q", o.size)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.scratch = dir
	rep, err := run(o, log)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(log, "%s seed=%d trace=%v: %d ops, %d failed\n", o.workload, o.seed, o.trace, rep.Attempted, rep.Failed)
	return rep, nil
}
