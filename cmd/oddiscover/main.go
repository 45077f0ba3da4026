// Command oddiscover mines order dependencies from CSV data: constants,
// order-compatible attribute pairs, and a minimal OD set whose closure covers
// everything the instance satisfies within the search bounds — the set
// POST /discover streams for the same rows and bounds.
//
// Usage:
//
//	oddiscover -maxlhs 1 -maxrhs 2 data.csv
//	generate_csv | oddiscover -
//	oddiscover -workers 8 -stream data.csv
//	oddiscover -workers 8 -declare http://localhost:8080 -schema sales data.csv
//
// The first CSV record names the attributes; numeric-looking values compare
// as numbers, everything else as strings.
//
// Discovery runs the level-wise pipeline: closure and refutation pruning
// ahead of the data, sorted-partition reuse per left-hand context, checks
// spread over -workers goroutines (0, the default, means GOMAXPROCS) and —
// with -stream — each OD printed the moment its lattice level commits, none
// implied by the ones before it. -declare pushes the discovered set to a
// running odserve daemon through the client's batch declare, landing it in
// the shard selected by -schema.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/pkg/odclient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oddiscover:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oddiscover", flag.ContinueOnError)
	maxLHS := fs.Int("maxlhs", 1, "maximum left-hand list length")
	maxRHS := fs.Int("maxrhs", 2, "maximum right-hand list length")
	maxAttrs := fs.Int("maxattrs", 7, "maximum attribute count")
	workers := fs.Int("workers", 0, "parallel validation workers; 0 = GOMAXPROCS")
	stream := fs.Bool("stream", false, "print each OD as its lattice level commits")
	declare := fs.String("declare", "", "push discovered ODs to this odserve base URL via batch declare")
	schema := fs.String("schema", "", "shard the -declare push targets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: oddiscover [flags] <file.csv | ->")
	}
	var in io.Reader = os.Stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rel, err := readCSV(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rows: %d, attributes: %v\n", rel.Len(), rel.Attrs())
	var onFound func(core.OD)
	if *stream {
		onFound = func(od core.OD) { fmt.Fprintf(out, "found: %s\n", od) }
	}
	res, err := discover.Pipeline(context.Background(), rel, discover.PipelineOptions{
		Options: discover.Options{MaxLHS: *maxLHS, MaxRHS: *maxRHS, MaxAttrs: *maxAttrs},
		Workers: *workers,
		OnFound: onFound,
	})
	if err != nil {
		return err
	}
	ods, st := res.ODs, res.Stats
	fmt.Fprintf(out, "candidates: %d, closure-pruned: %d, refutation-pruned: %d, data checks: %d\n",
		st.Candidates, st.ClosurePruned, st.RefutationPruned, st.DataChecks)
	fmt.Fprintf(out, "rows scanned: %d, partition cache: %d hits / %d misses\n",
		st.RowsScanned, st.CacheHits, st.CacheMisses)
	if len(res.Constants) > 0 {
		fmt.Fprintf(out, "constants: %v\n", res.Constants)
	}
	pairs, err := discover.CompatiblePairs(rel)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		fmt.Fprintf(out, "compatible: [%s] ~ [%s]\n", pr[0], pr[1])
	}
	fmt.Fprintf(out, "OD set (%d):\n", len(ods))
	for _, od := range ods {
		fmt.Fprintf(out, "  %s\n", od)
	}
	if *declare != "" {
		if err := declareODs(*declare, *schema, ods); err != nil {
			return err
		}
		fmt.Fprintf(out, "declared %d ODs to %s\n", len(ods), *declare)
	}
	return nil
}

// declareODs pushes the discovered set through the client's batch declare:
// one request, one WAL record, one closure rebuild on the target shard.
func declareODs(url, schema string, ods []core.OD) error {
	if len(ods) == 0 {
		return nil
	}
	cli, err := odclient.New(url)
	if err != nil {
		return err
	}
	defer cli.Close()
	stmts := make([]string, len(ods))
	for i, od := range ods {
		stmts[i] = od.String()
	}
	return cli.Declare(context.Background(), schema, stmts...)
}

func readCSV(in io.Reader) (*core.Relation, error) {
	r := csv.NewReader(in)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	attrs := make(core.List, len(header))
	for i, h := range header {
		attrs[i] = core.Attribute(h)
	}
	rel, err := core.NewRelation(attrs)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		vals := make([]core.Value, len(rec))
		for i, s := range rec {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				vals[i] = core.Int(n)
			} else if f, err := strconv.ParseFloat(s, 64); err == nil {
				vals[i] = core.Float(f)
			} else {
				vals[i] = core.Str(s)
			}
		}
		if err := rel.AddRow(vals...); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
