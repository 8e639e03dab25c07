package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"time"

	"sia"
	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// synthesized pairs a source predicate with what synthesis made of it,
// kept for the implication check.
type synthesized struct {
	source predicate.Predicate
	res    *core.Result
}

// useful reports whether a synthesis gave the optimizer something to push
// down: a proven-valid predicate other than TRUE.
func useful(res *core.Result) bool { return res != nil && res.Valid && res.Predicate != nil }

// checkImplications tests every learned predicate against its source on
// sampled joined tuples drawn from a small TPC-H copy. A synthesis that
// learned nothing has nothing to test; it lowers useful_frac instead.
func checkImplications(f *findings, learned []synthesized, seed int64, sz sizes) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: sz.OracleScale, Seed: seed})
	samples := newImplicationSamples(newOracleData(orders, lineitem), sz.ImplicationTuples, rand.New(rand.NewSource(seed)))
	for _, s := range learned {
		if s.res == nil || s.res.Predicate == nil {
			continue
		}
		var lost predicate.Tuple
		if s.res.Valid {
			lost = samples.violation(s.source, s.res.Predicate)
		}
		f.check(s.res.Valid && lost == nil, "learned predicate is unproven or loses a row: p = %s, p1 = %s, valid = %v, tuple%s",
			s.source, s.res.Predicate, s.res.Valid, formatTuple(lost))
	}
}

// synthPredicates is synth_cold's operation list: n generated predicates,
// less the few (about one in a thousand) that name no lineitem date column
// and so leave an optimizer nothing to ask for.
func synthPredicates(seed int64, n int) []predicate.Predicate {
	var out []predicate.Predicate
	for _, q := range workload.Generate(workload.Config{N: n, Seed: seed}) {
		if len(lineitemDateCols(q.Pred)) > 0 {
			out = append(out, q.Pred)
		}
	}
	return out
}

// The solver's interner and elimination memo are process-wide and cannot
// be emptied from outside, so the only cold synthesis is one in a new
// process. synth_cold therefore runs each pass in a child: this program
// started again with the request in its environment. The child generates
// the same predicates from the seed, synthesizes each once and writes what
// it measured and learned to its standard output.

const synthPassEnv = "SIA_BENCH_SYNTH_PASS"

type synthPassRequest struct {
	Seed    int64 `json:"seed"`
	N       int   `json:"n"`
	Traced  bool  `json:"traced"`
	Workers int   `json:"workers"`
}

// learnedWire is one synthesis result between child and parent.
type learnedWire struct {
	Predicate string `json:"predicate,omitempty"` // empty: only TRUE is valid
	Valid     bool   `json:"valid"`
	Optimal   bool   `json:"optimal"`
	Err       string `json:"err,omitempty"`
}

type synthPassReply struct {
	Pass    *passResult   `json:"pass"`
	Learned []learnedWire `json:"learned"` // one per operation
}

// synthPassChild is the child's whole life. It reports whether it was one.
func synthPassChild() bool {
	raw := os.Getenv(synthPassEnv)
	if raw == "" {
		return false
	}
	err := func() error {
		var req synthPassRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return err
		}
		runtime.GOMAXPROCS(req.Workers)
		reply, err := synthPass(context.Background(), synthPredicates(req.Seed, req.N), req.Traced)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(reply)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: synth_cold pass:", err)
		os.Exit(1)
	}
	return true
}

// synthPassInChild runs one pass in a new process and waits for it.
func synthPassInChild(ctx context.Context, req synthPassRequest) (*synthPassReply, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: synth_cold pass: %w", err)
	}
	env, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), synthPassEnv+"="+string(env))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: synth_cold pass in a child process: %w", err)
	}
	var reply synthPassReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, fmt.Errorf("bench: synth_cold pass: the child's reply: %w", err)
	}
	return &reply, nil
}

// synthPass synthesizes every predicate once, one after another on one
// client: the price an optimizer pays for a query it has not seen.
func synthPass(ctx context.Context, preds []predicate.Predicate, traced bool) (*synthPassReply, error) {
	schema := tpch.JoinSchema()
	opts := synthOptions()
	reply := &synthPassReply{Learned: make([]learnedWire, len(preds))}
	var timing core.Timing
	valid, optimal := 0, 0

	m, err := beginPass(len(preds), traced)
	if err != nil {
		return nil, err
	}
	for i, p := range preds {
		op := int32(i)
		start := time.Now()
		root := m.tr.begin(op, -1, "bench.op")
		call := m.tr.begin(op, root, "core.SynthesizeContext")
		res, err := sia.SynthesizeContext(ctx, p, lineitemDateCols(p), schema, opts)
		m.tr.end(call)
		m.tr.end(root)
		m.observe(i, start)
		if err != nil {
			reply.Learned[i].Err = err.Error()
			continue
		}
		timing.Add(res.Timing)
		reply.Learned[i] = learnedWire{Valid: res.Valid, Optimal: res.Optimal}
		if res.Predicate != nil {
			reply.Learned[i].Predicate = res.Predicate.String()
		}
		if useful(res) {
			valid++
		}
		if res.Optimal {
			optimal++
		}
	}
	if reply.Pass, err = m.end(); err != nil {
		return nil, err
	}
	if traced {
		layer, n := reply.Pass.Layer, float64(len(preds))
		layer["core.valid_frac"] = ratio(float64(valid), n)
		layer["core.optimal_frac"] = ratio(float64(optimal), n)
		calls := durationsByName(reply.Pass.Spans)["core.SynthesizeContext"]
		layer["core.synth_p50_ms"] = median(calls)
		layer["core.synth_geomean_ms"] = geomean(calls)
		// Attribution: the three Table-3 phases the layer reports about
		// itself should add up to what its caller waited for.
		layer["core.unattributed_frac"] = 1 - ratio(timing.Total().Seconds()*1e3, sum(calls))
	}
	return reply, nil
}

func runSynthCold(ctx context.Context, rc runConfig) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	var preds []predicate.Predicate
	err := repeatSetup(out, rc.sz.SetupRepeats, func(int) error {
		preds = synthPredicates(rc.seed, rc.sz.SynthPredicates)
		return nil
	})
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(preds))
	for i, p := range preds {
		texts[i] = p.String()
	}
	out.inputs = inputFingerprint(texts...)

	var first []learnedWire
	out.passes, err = runPasses(rc, func(traced bool) (*passResult, error) {
		reply, err := synthPassInChild(ctx, synthPassRequest{Seed: rc.seed, N: rc.sz.SynthPredicates, Traced: traced, Workers: rc.workers})
		if err != nil {
			return nil, err
		}
		if len(reply.Learned) != len(preds) || len(reply.Pass.LatMS) != len(preds) {
			return nil, fmt.Errorf("bench: synth_cold pass answered %d of %d predicates", len(reply.Learned), len(preds))
		}
		out.attempted += len(preds)
		for i, l := range reply.Learned {
			switch {
			case l.Err != "":
				out.failed++
				out.findings = append(out.findings, fmt.Sprintf("synthesize %s: %s", preds[i], l.Err))
			case first != nil && l != first[i]:
				out.failed++
				out.findings = append(out.findings, fmt.Sprintf("two passes learned different predicates from %s: %q, then %q", preds[i], first[i].Predicate, l.Predicate))
			}
		}
		if first == nil {
			first = reply.Learned
		}
		return reply.Pass, nil
	})
	if err != nil {
		return nil, err
	}

	schema := tpch.JoinSchema()
	var f findings
	var learned []synthesized
	good := 0
	for i, l := range first {
		res := &core.Result{Valid: l.Valid, Optimal: l.Optimal}
		if l.Predicate != "" {
			p, err := predicate.Parse(l.Predicate, schema)
			if err != nil {
				f.check(false, "learned predicate does not parse: %s: %v", l.Predicate, err)
				continue
			}
			res.Predicate = p
		}
		learned = append(learned, synthesized{source: preds[i], res: res})
		if useful(res) {
			good++
		}
	}
	out.useful = ratio(float64(good), float64(len(preds)))
	checkImplications(&f, learned, rc.seed, rc.sz)
	out.attempted += f.checks
	out.failed += f.failed()
	out.findings = append(out.findings, f.msgs...)
	return out, nil
}
