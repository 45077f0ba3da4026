// Command odrewrite minimizes ORDER BY and GROUP BY lists under declared
// dependencies, applying the paper's ReduceOrder⁺ (FD elimination plus the
// order-dependency Left Eliminate of Theorem 8) and explaining each step.
// An -fd joins the -m statements as the OD it is ({X} -> {Y} is [X] -> [X, Y]).
//
// Usage:
//
//	odrewrite -m "[month] -> [quarter]" -order "year, quarter, month"
//	odrewrite -m "[m] -> [q]" -fd "{m} -> {q}" -group "y, q, m" -order "y, q, m"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/rewrite"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "odrewrite:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("odrewrite", flag.ContinueOnError)
	inline := fs.String("m", "", "OD constraint statements, ';'-separated")
	fdFlag := fs.String("fd", "", "FD constraints, ';'-separated, e.g. {month} -> {quarter} (read as [month] -> [month, quarter])")
	orderFlag := fs.String("order", "", "ORDER BY list to reduce")
	groupFlag := fs.String("group", "", "GROUP BY list to reduce")
	proof := fs.Bool("proof", false, "emit the machine-checkable equivalence proof")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ods, err := core.ParseStatements(*inline)
	if err != nil {
		return err
	}
	var fds []fd.FD
	for _, part := range strings.Split(*fdFlag, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFD(part)
		if err != nil {
			return err
		}
		fds = append(fds, f)
	}
	c := rewrite.NewConstraints(fds, ods)
	if *orderFlag == "" && *groupFlag == "" {
		return fmt.Errorf("nothing to do: pass -order and/or -group")
	}
	if *orderFlag != "" {
		order, err := core.ParseList(*orderFlag)
		if err != nil {
			return err
		}
		res, err := rewrite.ReduceOrder(order, c)
		if err != nil {
			return err
		}
		fmt.Printf("ORDER BY %v  =>  ORDER BY %v\n", res.Input, res.Reduced)
		for _, s := range res.Steps {
			fmt.Printf("  drop %v at %d by %s via %v\n", s.Seg, s.Pos, s.Rule, s.By)
		}
		if *proof {
			pr, err := res.Proof(c)
			if err != nil {
				return err
			}
			fmt.Println("equivalence proof (verified):")
			fmt.Print(pr)
		}
	}
	if *groupFlag != "" {
		group, err := core.ParseList(*groupFlag)
		if err != nil {
			return err
		}
		res, err := rewrite.ReduceGroupBy(context.Background(), group, c)
		if err != nil {
			return err
		}
		fmt.Printf("GROUP BY %v  =>  GROUP BY %v\n", res.Input, res.Reduced)
		for _, s := range res.Steps {
			fmt.Printf("  drop %v by %s via %v\n", s.Seg, s.Rule, s.By)
		}
	}
	return nil
}

// parseFD parses "{A, B} -> {C}" (braces optional).
func parseFD(s string) (fd.FD, error) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 {
		return fd.FD{}, fmt.Errorf("bad FD %q", s)
	}
	clean := func(p string) (core.List, error) {
		p = strings.TrimSpace(p)
		p = strings.TrimPrefix(p, "{")
		p = strings.TrimSuffix(p, "}")
		return core.ParseList(p)
	}
	lhs, err := clean(parts[0])
	if err != nil {
		return fd.FD{}, err
	}
	rhs, err := clean(parts[1])
	if err != nil {
		return fd.FD{}, err
	}
	return fd.New(lhs, rhs), nil
}
