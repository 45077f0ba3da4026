package tpcds

import (
	"context"
	"strings"
	"testing"

	"odlib/internal/warehouse"
)

func smallConfig() warehouse.Config {
	return warehouse.Config{StartYear: 2000, Days: 731, FactRows: 8000, Items: 25, Stores: 5, Seed: 42}
}

// smallStar loads the test-scale warehouse into engine tables.
func smallStar(t *testing.T) *Star {
	t.Helper()
	w, err := warehouse.Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeclaredConstraintsHold verifies every declared OD and FD against the
// generated calendar — the integrity-constraint check of the prototype.
func TestDeclaredConstraintsHold(t *testing.T) {
	w, err := warehouse.Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}
}

// TestSuite13 runs the base experiment at test scale: every query's
// rewritten plan must return the baseline answer with lower cost.
func TestSuite13(t *testing.T) {
	s := smallStar(t)
	ms, err := RunSuite(context.Background(), s.Queries13())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 13 {
		t.Fatalf("13 queries expected, got %d", len(ms))
	}
	var avg float64
	for _, m := range ms {
		if !m.Match {
			t.Errorf("%s: answers differ", m.Name)
		}
		if m.CostGain() <= 0 {
			t.Errorf("%s: no cost gain (base %d, rewritten %d)",
				m.Name, m.BaselineStats.Cost(), m.RewrittenStats.Cost())
		}
		if m.Rows == 0 {
			t.Errorf("%s: empty result, query window misses data", m.Name)
		}
		avg += m.CostGain()
	}
	avg /= float64(len(ms))
	// The paper reports ~48% average gain on DB2/TPC-DS; our substrate
	// should land in the same regime — strictly positive double digits.
	if avg < 20 || avg > 99.9 {
		t.Errorf("average gain %.1f%% outside the plausible band", avg)
	}
	table := FormatTable(ms)
	if !strings.Contains(table, "average") || !strings.Contains(table, "q01_month_item_qty") {
		t.Errorf("table formatting wrong:\n%s", table)
	}
	t.Logf("suite gains (avg %.1f%%):\n%s", avg, table)
}

// TestSuiteExtension runs the five extension queries: the combined rewrite
// must fire (stream aggregate + order elimination) and answers must match.
func TestSuiteExtension(t *testing.T) {
	s := smallStar(t)
	ms, err := RunSuite(context.Background(), s.QueriesExtension())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("5 extension queries expected, got %d", len(ms))
	}
	for _, m := range ms {
		if !m.Match {
			t.Errorf("%s: answers differ", m.Name)
		}
		if m.CostGain() <= 0 {
			t.Errorf("%s: no gain", m.Name)
		}
		joined := strings.Join(m.Rewrites, ",")
		if !strings.Contains(joined, "date-surrogate-range") ||
			!strings.Contains(joined, "stream-aggregate") ||
			!strings.Contains(joined, "order-by-eliminated") {
			t.Errorf("%s: combined rewrite did not fully fire: %v", m.Name, m.Rewrites)
		}
		if m.RewrittenStats.Sorts != 0 {
			t.Errorf("%s: rewritten plan sorted", m.Name)
		}
		if m.BaselineStats.Sorts == 0 {
			t.Errorf("%s: baseline should sort", m.Name)
		}
	}
	if len(s.Queries18()) != 18 {
		t.Errorf("full suite should have 18 queries")
	}
}
