package warehouse

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

func smallConfig() Config {
	return Config{StartYear: 2000, Days: 731, FactRows: 8000, Items: 25, Stores: 5, Seed: 42}
}

// relations returns the warehouse's date dimension and sales relations.
func relations(t *testing.T, w *Warehouse) (dates, sales *core.Relation) {
	t.Helper()
	dates, err := w.DateDimRelation()
	if err != nil {
		t.Fatal(err)
	}
	sales, err = w.SalesRelation()
	if err != nil {
		t.Fatal(err)
	}
	return dates, sales
}

func TestGenerateShape(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dates, sales := relations(t, w)
	if dates.Len() != 731 {
		t.Errorf("date_dim rows = %d", dates.Len())
	}
	if sales.Len() != 8000 {
		t.Errorf("store_sales rows = %d", sales.Len())
	}
	// First and last dates are the expected calendar days.
	c, _ := dates.Col(DDate)
	if dates.Row(0)[c].Int != 20000101 {
		t.Errorf("first date = %v", dates.Row(0)[c])
	}
	if dates.Row(730)[c].Int != 20011231 {
		t.Errorf("last date = %v", dates.Row(730)[c])
	}
	// Leap day present (2000 is a leap year).
	found := false
	for i := 0; i < dates.Len(); i++ {
		if dates.Row(i)[c].Int == 20000229 {
			found = true
			break
		}
	}
	if !found {
		t.Error("2000-02-29 missing")
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("bad config must fail")
	}
	// Determinism.
	w2, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, sales2 := relations(t, w2)
	for i := 0; i < 100; i++ {
		for j := range sales.Row(i) {
			if !sales.Row(i)[j].Equal(sales2.Row(i)[j]) {
				t.Fatal("generation is not deterministic")
			}
		}
	}
}

// TestGenerateGolden pins the generator's cells: the date dimension at 60,
// 365 and 1,826 days and the sales table at 1,000 rows hash to the digests
// the row-by-row generator they replace produced for the same configs.
func TestGenerateGolden(t *testing.T) {
	digest := func(r *core.Relation) string {
		h := sha256.New()
		fmt.Fprintln(h, r.Attrs())
		for i := range r.Len() {
			for _, v := range r.Row(i) {
				fmt.Fprintf(h, "%d %d %g %q\n", v.Kind, v.Int, v.F, v.Str)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, want := range []struct {
		days int
		sum  string
	}{
		{60, "fc78ded3ac9de673248602e352a7773bd39c95701c335fc0a1c58bbfe155ac8b"},
		{365, "bd0c37afbd224841611b98d03abb110bd8d09d5ccfe71a3e2c2940af2c1c7bba"},
		{1826, "619572aa68a85b4a053b2a56d90ad25ee900a55a9caea32f7262b474abac0c0f"},
	} {
		w, err := Generate(Config{StartYear: 2000, Days: want.days, Items: 120, Stores: 12, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		dates, _ := relations(t, w)
		if got := digest(dates); got != want.sum {
			t.Errorf("date_dim at %d days: sha256 %s, want %s", want.days, got, want.sum)
		}
	}
	cfg := DefaultConfig()
	cfg.FactRows = 1000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, sales := relations(t, w)
	if got, want := digest(sales), "fbf88225d8f4503410e362c343726614d56179b4850dac7c01b1390e06ecacf3"; got != want {
		t.Errorf("store_sales at 1,000 rows: sha256 %s, want %s", got, want)
	}
}

// TestDeclaredODsConsistent: the declared OD set is internally consistent
// enough to license the date rewrite via the prover.
func TestDeclaredODsConsistent(t *testing.T) {
	p := prover.New(DeclaredODs())
	ok, err := p.Equivalent(core.List{DDateSK}, core.List{DDate})
	if err != nil || !ok {
		t.Errorf("surrogate/date equivalence must be implied: %v %v", ok, err)
	}
	// The quote from the paper: [d_date_sk] ↦ [d_year, d_moy] follows.
	ok, err = p.Implies(core.NewOD(core.List{DDateSK}, core.List{DYear, DMoy}))
	if err != nil || !ok {
		t.Errorf("[d_date_sk] -> [d_year, d_moy] must be implied: %v %v", ok, err)
	}
	// And the Example 1 rewrite works in this vocabulary.
	ok, err = p.ImpliesAll(core.Equivalence(
		core.List{DYear, DQoy, DMoy}, core.List{DYear, DMoy}))
	if err != nil || !ok {
		t.Errorf("quarter elimination must be implied: %v %v", ok, err)
	}
}
