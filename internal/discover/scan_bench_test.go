package discover

import (
	"testing"

	"odlib/internal/core"
)

// BenchmarkCheckScanDateDim is the data check's scan on its own: every
// context of up to two attributes of the date dimension (50), each sorted
// once before timing starts, against a fixed set of 127 right-hand sides of
// one, two and three attributes — 6,350 CheckCols calls an op, where a
// pipeline run makes 609 among its sorts and its pruning. Each call walks the
// context's order until the first misordered pair, so most refuting checks
// stop early, as they do in a run.
func BenchmarkCheckScanDateDim(b *testing.B) {
	dates, _ := dateDim(b)
	cache := core.NewSortCache(dates)
	defer cache.Release()
	width := len(dates.Attrs())
	parts := []*core.SortedPartition{}
	var rhss [][]int
	for a := range width {
		rhss = append(rhss, []int{a})
		for c := range width {
			if c == a {
				continue
			}
			rhss = append(rhss, []int{a, c})
			for d := range width {
				if d != a && d != c && (a+c+d)%3 == 0 {
					rhss = append(rhss, []int{a, c, d})
				}
			}
		}
	}
	contexts := [][]int{nil}
	for a := range width {
		contexts = append(contexts, []int{a})
		for c := range width {
			if c != a {
				contexts = append(contexts, []int{a, c})
			}
		}
	}
	for _, x := range contexts {
		p, err := cache.GetCols(x)
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, p)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range parts {
			for _, y := range rhss {
				if _, err := dates.CheckCols(p, y); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
