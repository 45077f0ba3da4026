package main

import (
	"context"
	"fmt"
	"sort"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/pkg/odclient"
)

// The generator knows every expected answer by construction. selfCheck
// makes sure it is right about them before anything is measured, so that a
// failed op counts against the system and not against the generator.

// crossCheckEvery is the share of generated prove ops decided a second time
// by a fresh sequential prover.
const crossCheckEvery = 100

func selfCheck(ctx context.Context, w *workload) error {
	for i := range w.relations {
		if err := w.relations[i].reference(ctx); err != nil {
			return err
		}
	}
	declared, err := w.declaredODs()
	if err != nil {
		return err
	}
	provers := map[string]*prover.Prover{}
	for name, ods := range declared {
		provers[name] = prover.New(ods, prover.WithWorkers(1))
	}
	for _, l := range w.lists {
		for i := 0; i < len(l); i += crossCheckEvery {
			o := &l[i]
			if o.kind != opProve {
				continue
			}
			q, err := core.ParseStatement(o.text)
			if err != nil {
				return err
			}
			ok, err := provers[o.schema].ImpliesAllCtx(ctx, q)
			if err != nil {
				return fmt.Errorf("%s %q: %w", o.schema, o.text, err)
			}
			if ok != o.implied {
				return fmt.Errorf("%s %q: generator expects implied=%v, sequential prover says %v", o.schema, o.text, o.implied, ok)
			}
		}
	}

	// Every warm-up statement once over the wire of a scratch stack: the
	// verdicts are checked by do, and each refutation's witness is validated.
	st, err := openStack("")
	if err != nil {
		return err
	}
	defer st.close()
	if err := populate(st.rt, w.schemas); err != nil {
		return err
	}
	se, err := st.session()
	if err != nil {
		return err
	}
	defer se.close()
	for i := range w.warm {
		o := &w.warm[i]
		if o.kind != opProve {
			continue
		}
		wit, err := se.do(ctx, w, o)
		if err != nil {
			return err
		}
		if wit != nil {
			if err := validateWitness(declared[o.schema], o, wit); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *workload) declaredODs() (map[string][]core.OD, error) {
	out := map[string][]core.OD{}
	for _, sc := range w.schemas {
		for _, stmt := range sc.declared {
			ods, err := core.ParseStatement(stmt)
			if err != nil {
				return nil, err
			}
			out[sc.name] = append(out[sc.name], ods...)
		}
	}
	return out, nil
}

// validateWitness checks a wire witness the way a client that distrusts the
// daemon would: the two rows, tied on every attribute the witness omits, must
// satisfy the shard's declared set and falsify the refuted statement.
func validateWitness(declared []core.OD, o *op, wit *odclient.Witness) error {
	question, err := core.ParseStatement(o.text)
	if err != nil {
		return err
	}
	two, err := wit.Relation()
	if err != nil {
		return fmt.Errorf("witness of %q: %w", o.text, err)
	}
	universe := core.AttrsOf(declared).Union(core.AttrsOf(question)).Sorted()
	full, err := core.NewRelation(universe)
	if err != nil {
		return err
	}
	for i := 0; i < two.Len(); i++ {
		row := make([]int64, len(universe))
		for k, a := range universe {
			if two.HasAttr(a) {
				v, err := two.Value(i, a)
				if err != nil {
					return err
				}
				row[k] = v.Int
			}
		}
		if err := full.AddIntRow(row...); err != nil {
			return err
		}
	}
	ok, v, err := full.SatisfiesAll(declared)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("witness of %s %q violates the declared set: %w", o.schema, o.text, v)
	}
	if ok, _, err = full.SatisfiesAll(question); err != nil {
		return err
	}
	if ok {
		return fmt.Errorf("witness of %s %q does not falsify it", o.schema, o.text)
	}
	return nil
}

// verifyWitnesses validates the refutation witnesses kept during a phase.
func (b *bench) verifyWitnesses(p *phase) error {
	declared, err := b.w.declaredODs()
	if err != nil {
		return err
	}
	for _, t := range p.tallies {
		for _, k := range t.kept {
			if err := validateWitness(declared[k.o.schema], k.o, k.w); err != nil {
				return err
			}
		}
	}
	return nil
}

// reference fills the relation's expected answer: the accepted set and data
// checks of one pipeline run, after showing that set's closure equal to the
// sequential discoverer's.
func (r *relation) reference(ctx context.Context) error {
	opts := discover.Options{MaxLHS: r.maxLHS, MaxRHS: r.maxRHS}
	pipe, err := discover.Pipeline(ctx, r.rel, discover.PipelineOptions{Options: opts})
	if err != nil {
		return err
	}
	seq, err := discover.Discover(r.rel, opts)
	if err != nil {
		return err
	}
	// The sequential run reports constants beside its ODs, the pipeline among them.
	a, b := pipe.ODs, append([]core.OD(nil), seq.ODs...)
	for _, c := range seq.Constants {
		b = append(b, core.ConstantOD(c))
	}
	ok, err := prover.New(a).EquivalentSets(b)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("discover %s: the closures of the pipeline's %d ODs and the sequential run's %d differ", r.name, len(a), len(b))
	}
	r.wantODs = r.wantODs[:0]
	for _, od := range pipe.ODs {
		r.wantODs = append(r.wantODs, od.String())
	}
	sort.Strings(r.wantODs)
	r.wantChecks = pipe.Stats.DataChecks
	return nil
}
