package datetime

import (
	"time"

	"odlib/internal/core"
	"odlib/internal/inference"
	"odlib/internal/prover"
)

// The date attribute vocabulary.
const (
	Date      core.Attribute = "date"
	Year      core.Attribute = "year"
	Quarter   core.Attribute = "quarter"
	Month     core.Attribute = "month"
	Day       core.Attribute = "day"
	DayOfYear core.Attribute = "day_of_year"
	WeekSeq   core.Attribute = "week_seq"
	DayOfWeek core.Attribute = "day_of_week"
)

// DeclaredODs returns the generating dependencies of Figure 2; everything
// else in the diagram is derivable (see DatePaths and Example4Proof).
func DeclaredODs() []core.OD {
	var out []core.OD
	for _, text := range []string{
		"[date] <-> [year, month, day]",
		"[date] <-> [year, day_of_year]",
		"[date] <-> [week_seq, day_of_week]",
		"[date] -> [week_seq]",
		"[month] -> [quarter]",
	} {
		ods, err := core.ParseStatements(text)
		if err != nil {
			panic(err) // static text
		}
		out = append(out, ods...)
	}
	return out
}

// Hierarchy answers questions about the date OD graph. It is safe for
// concurrent use.
type Hierarchy struct {
	p *prover.Prover
}

// New builds the hierarchy over the declared dependencies.
func New() *Hierarchy {
	return &Hierarchy{p: prover.New(DeclaredODs())}
}

// Nodes returns the canonical path nodes of Figure 2: every list here is
// determined by [date], and lists on the same path extend one another.
func Nodes() []core.List {
	return []core.List{
		{Year},
		{Year, Quarter},
		{Year, Quarter, Month},
		{Year, Quarter, Month, Day},
		{Year, Month},
		{Year, Month, Day},
		{Year, DayOfYear},
		{WeekSeq},
		{WeekSeq, DayOfWeek},
	}
}

// DatePaths returns the OD [date] ↦ node for every node of the diagram,
// each certified by the implication prover.
func (h *Hierarchy) DatePaths() ([]core.OD, error) {
	var out []core.OD
	for _, node := range Nodes() {
		od := core.NewOD(core.List{Date}, node)
		ok, err := h.p.Implies(od)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, od)
		}
	}
	return out, nil
}

// Implies exposes the hierarchy's prover for ad-hoc questions.
func (h *Hierarchy) Implies(od core.OD) (bool, error) { return h.p.Implies(od) }

// Example4Proof reproduces the paper's Example 4 as a machine-checked
// derivation: from [date] ↦ [year, month, day] and [month] ↦ [quarter], the
// Path theorem splices quarter into the list, concluding
// [date] ↦ [year, quarter, month, day].
func Example4Proof() (*inference.Proof, error) {
	dateYMD := core.NewOD(core.List{Date}, core.List{Year, Month, Day})
	monthQ := core.NewOD(core.List{Month}, core.List{Quarter})
	return inference.ProveTheorem([]core.OD{dateYMD, monthQ}, func(b *inference.Builder) int {
		i := b.Assume(dateYMD)
		mq := b.Assume(monthQ)
		// [year, month] ↔ [year, quarter, month] by Left Eliminate under
		// the year prefix.
		lf, lb := b.LeftEliminate(mq, core.List{Year}, nil)
		// Splice into the path after the [year, month] prefix.
		return b.Path(i, lb, lf, 2)
	})
}

// Calendar generates the real calendar as a relation over the vocabulary,
// one row per day — ground truth for validating the declared dependencies.
// Weeks are ISO-style Monday weeks numbered globally (week_seq), so the
// declared ODs hold across year boundaries.
func Calendar(startYear, days int) (*core.Relation, error) {
	rel, err := core.NewRelation(core.List{Date, Year, Quarter, Month, Day, DayOfYear, WeekSeq, DayOfWeek})
	if err != nil {
		return nil, err
	}
	start := time.Date(startYear, 1, 1, 0, 0, 0, 0, time.UTC)
	epoch := time.Date(1970, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday
	for i := 0; i < days; i++ {
		d := start.AddDate(0, 0, i)
		sinceEpoch := int64(d.Sub(epoch).Hours() / 24)
		dow := ((sinceEpoch % 7) + 7) % 7
		err := rel.AddRow(
			core.Int(int64(d.Year())*10000+int64(d.Month())*100+int64(d.Day())),
			core.Int(int64(d.Year())),
			core.Int(int64((int(d.Month())-1)/3+1)),
			core.Int(int64(d.Month())),
			core.Int(int64(d.Day())),
			core.Int(int64(d.YearDay())),
			core.Int(sinceEpoch/7),
			core.Int(dow),
		)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}
