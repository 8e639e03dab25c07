package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// runKey identifies a run within a result file: the nth run of a workload
// on a seed.
type runKey struct {
	workload string
	seed     int64
	nth      int
}

// side is the untraced runs of one result file.
type side struct {
	path string
	runs map[runKey]map[string]float64 // metric values of each run
	keys []runKey                      // in file order
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{path: path, runs: map[runKey]map[string]float64{}}
	seen := map[runKey]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue // per-layer metrics carry no bound
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: a %s run failed its correctness check; its timings mean nothing", path, rec.Workload)
		}
		first := runKey{workload: rec.Workload, seed: rec.Seed}
		k := first
		k.nth = seen[first]
		seen[first]++
		values := make(map[string]float64, len(rec.Metrics))
		for name, v := range rec.Metrics {
			values[name] = v.Value
		}
		s.runs[k] = values
		s.keys = append(s.keys, k)
	}
	return s, sc.Err()
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	pairs              int
	baseMed, candMed   float64
	worsening          float64 // median over the pairs of the relative change in the metric's bad direction
	noise              float64 // distance between the quartiles of those changes
	wins, losses, ties int     // pairs in which the candidate was better, worse, equal
	verdict            string
}

// judge compares paired runs: base[i] and cand[i] measured the same
// workload on the same seed, so their inputs were identical, and when the
// two files were filled in turns they also ran within a minute of each
// other. The change is judged pair by pair, which cancels both what differs
// between seeds and what the host did over the hours the runs took.
func judge(spec metricSpec, base, cand []float64) judgement {
	j := judgement{pairs: len(base), baseMed: median(base), candMed: median(cand)}
	changes := make([]float64, len(base))
	for i := range base {
		c := ratio(cand[i]-base[i], base[i])
		if spec.Better == "higher" {
			c = -c
		}
		changes[i] = c
		switch {
		case c < 0:
			j.wins++
		case c > 0:
			j.losses++
		default:
			j.ties++
		}
	}
	j.worsening = median(changes)
	q1, q3 := quartiles(changes)
	j.noise = q3 - q1
	switch {
	case j.pairs < 2, j.noise > spec.Bound && j.worsening-j.noise <= spec.Bound:
		j.verdict = "unresolved"
	case j.worsening > spec.Bound:
		j.verdict = "worse"
	case -j.worsening > j.noise && 10*j.wins >= 9*(j.wins+j.losses):
		j.verdict = "better"
	default:
		j.verdict = "unchanged"
	}
	return j
}

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareFiles prints, for every later file against the first, each
// (workload, end-to-end metric) pair's verdict over the runs the two files
// share. A file holds the runs of one side, one JSON line per run as -out
// appends them.
func compareFiles(w io.Writer, specs []metricSpec, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare wants a base file and at least one file to compare with it")
	}
	base, err := readSide(paths[0])
	if err != nil {
		return err
	}
	worse := false
	for _, p := range paths[1:] {
		cand, err := readSide(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s → %s, paired by workload and seed\n", base.path, cand.path)
		fmt.Fprintf(w, "%-11s %-14s %5s %12s %12s %14s %7s %6s %9s  %s\n",
			"workload", "metric", "pairs", "base median", "new median", "paired change", "noise", "bound", "won/lost", "verdict")
		for _, wl := range workloads {
			for _, spec := range specs {
				var b, c []float64
				for _, k := range base.keys {
					if cv, ok := cand.runs[k]; ok && k.workload == wl.name {
						b = append(b, base.runs[k][spec.Name])
						c = append(c, cv[spec.Name])
					}
				}
				if len(b) == 0 {
					continue
				}
				j := judge(spec, b, c)
				if j.verdict == "worse" {
					worse = true
				}
				direction := "worse"
				if j.worsening < 0 {
					direction = "better"
				}
				fmt.Fprintf(w, "%-11s %-14s %5d %12.5g %12.5g %6.1f%% %-6s %6.1f%% %5.0f%% %4d/%-4d  %s\n",
					wl.name, spec.Name, j.pairs, j.baseMed, j.candMed, 100*math.Abs(j.worsening), direction,
					100*j.noise, 100*spec.Bound, j.wins, j.losses, j.verdict)
			}
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
