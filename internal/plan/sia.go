package plan

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"sia/internal/core"
	"sia/internal/predicate"
)

// SynthesisInfo records one application of the Sia rule: which join side
// the predicate was synthesized for and the synthesis outcome.
type SynthesisInfo struct {
	// Side is "left" or "right".
	Side string
	// Cols is the target column set handed to the synthesizer.
	Cols []string
	// Result is the raw synthesis result.
	Result *core.Result
}

// SiaRewrite applies the paper's rewrite: for every Filter sitting on a
// Join whose predicate spans both sides, it synthesizes (per side) a valid
// predicate over just that side's columns and conjoins it to the filter.
// A subsequent PushDownFilters pass then moves the synthesized conjuncts
// below the join — the plan transformation of Fig. 1.
//
// The returned infos describe every synthesis attempt (used by the
// experiment harness); the rewritten plan is semantically equivalent to the
// input because only verified-valid predicates are added. Every solver call
// of the rewrite honors ctx.
func SiaRewrite(ctx context.Context, n Node, schema *predicate.Schema, opts core.Options) (Node, []SynthesisInfo, error) {
	var infos []SynthesisInfo
	out, err := siaRewrite(ctx, n, schema, opts, &infos)
	if err != nil {
		return nil, nil, err
	}
	return out, infos, nil
}

func siaRewrite(ctx context.Context, n Node, schema *predicate.Schema, opts core.Options, infos *[]SynthesisInfo) (Node, error) {
	f, ok := n.(*Filter)
	if !ok {
		ch := n.Children()
		if len(ch) == 0 {
			return n, nil
		}
		newCh := make([]Node, len(ch))
		for i, c := range ch {
			nc, err := siaRewrite(ctx, c, schema, opts, infos)
			if err != nil {
				return nil, err
			}
			newCh[i] = nc
		}
		return n.withChildren(newCh), nil
	}
	join, ok := f.Input.(*Join)
	if !ok {
		in, err := siaRewrite(ctx, f.Input, schema, opts, infos)
		if err != nil {
			return nil, err
		}
		return &Filter{Pred: f.Pred, Input: in}, nil
	}

	pred := f.Pred
	predCols := predicate.Columns(pred)
	extra := []predicate.Predicate{}
	for _, side := range []struct {
		name string
		node Node
	}{{"left", join.Left}, {"right", join.Right}} {
		sideCols := intersect(predCols, schemaCols(side.node.Schema()))
		if len(sideCols) == 0 || len(sideCols) == len(predCols) {
			// Nothing to reduce to, or the predicate already lives
			// entirely on this side (plain pushdown handles it).
			continue
		}
		if sideFullyCovered(pred, sideCols) {
			// Every conjunct touching this side is already single-sided;
			// synthesis can add nothing pushdown would not already move.
			continue
		}
		res, err := core.SynthesizeContext(ctx, pred, sideCols, schema, opts)
		if err != nil {
			if errors.Is(err, core.ErrUnsupported) {
				continue
			}
			return nil, fmt.Errorf("plan: sia rewrite: %w", err)
		}
		*infos = append(*infos, SynthesisInfo{Side: side.name, Cols: sideCols, Result: res})
		if res.Predicate != nil && res.Valid {
			// Drop the synthesized predicate when the conjuncts plain
			// pushdown already moves to this side imply it — re-filtering
			// with a redundant predicate costs a scan and saves nothing.
			var existing []predicate.Predicate
			for _, conj := range predicate.Conjuncts(pred) {
				if predicate.UsesOnly(conj, sideCols) {
					existing = append(existing, conj)
				}
			}
			if len(existing) > 0 {
				implied, err := core.VerifyReductionContext(ctx, predicate.NewAnd(existing...), res.Predicate, schema)
				if err == nil && implied {
					continue
				}
			}
			extra = append(extra, res.Predicate)
		}
	}
	in, err := siaRewrite(ctx, join, schema, opts, infos)
	if err != nil {
		return nil, err
	}
	if len(extra) == 0 {
		return &Filter{Pred: pred, Input: in}, nil
	}
	all := append([]predicate.Predicate{pred}, extra...)
	return &Filter{Pred: predicate.NewAnd(all...), Input: in}, nil
}

// sideFullyCovered reports whether every conjunct of pred that mentions a
// column of sideCols mentions only columns of sideCols.
func sideFullyCovered(pred predicate.Predicate, sideCols []string) bool {
	for _, conj := range predicate.Conjuncts(pred) {
		touches, outside := false, false
		for _, c := range predicate.Columns(conj) {
			if slices.Contains(sideCols, c) {
				touches = true
			} else {
				outside = true
			}
		}
		if touches && outside {
			return false
		}
	}
	return true
}

func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}
