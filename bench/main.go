// Command bench is the repository's benchmark: absolute prove, rewrite,
// mutate and discover numbers of the odserve stack on four named workloads,
// and a traced run that attributes them to the layers. See README.md.
//
// Usage (from the repository root):
//
//	go run -C bench odlib/bench -workload prove-hot -seed 1 -seconds 20 -trace 0
//	go run -C bench odlib/bench -workload all -repeat 5 -out out/a.json
//	go run -C bench odlib/bench -compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: prove-hot, prove-search, mutate-churn, discover-date or all")
	seed := fs.Int64("seed", 1, "generator seed; the same seed gives byte-identical inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	repeat := fs.Int("repeat", 1, "run each workload this many times and print the spread of every metric against its bound")
	out := fs.String("out", "", "also write the run set as JSON to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare the two run-set files given as arguments and exit non-zero where they disagree beyond a bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two run-set files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	set := runSet{Env: environment(), Settings: settings(*seconds)}
	ctx := context.Background()
	for _, n := range names {
		for i := 0; i < *repeat; i++ {
			res, err := runOne(ctx, n, *seed, *seconds, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			set.Runs = append(set.Runs, res)
			report(os.Stdout, &set, res)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, &set)
	}
	if *out != "" {
		b, err := json.MarshalIndent(&set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, r := range set.Runs {
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed or were answered wrongly", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// clients is the closed loop's width: callers are optimizer sessions that
// wait for each reply, at most one per CPU.
func clients() int { return min(runtime.GOMAXPROCS(0), 2) }

func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool) (*result, error) {
	w, err := generate(name, seed, clients(), seconds)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(ctx, w, seed, seconds)
	}
	return runEndToEnd(ctx, w, seed, seconds)
}

// report prints one run: a readable block, then the one-line JSON object the
// driver reads (correct, attempted, failed, metrics) as the last line.
func report(out io.Writer, set *runSet, r *result) {
	env, _ := json.Marshal(set.Env)
	cfg, _ := json.Marshal(set.Settings)
	fmt.Fprintf(out, "workload %s seed %d trace %v workload_hash %s\nenv %s\nsettings %s\nsamples %v\n",
		r.Workload, r.Seed, r.Trace, r.Hash, env, cfg, r.Samples)
	for _, n := range sortedKeys(r.Metrics) {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  FAILED: %s\n", e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(out, "%s\n", line)
}
