package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sia/internal/maxcompute"
)

// colName maps column counts to the paper's row labels.
func colName(n int) string {
	switch n {
	case 1:
		return "one"
	case 2:
		return "two"
	case 3:
		return "three"
	default:
		return fmt.Sprint(n)
	}
}

// RenderTable1 prints the baseline configurations (Table 1).
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %16s %16s %16s %16s\n", "", "Max Iteration #", "# Init True", "# Init False", "# Per Iteration")
	for _, r := range rows {
		per := "N/A"
		if r.PerIter > 0 {
			per = fmt.Sprint(r.PerIter)
		}
		fmt.Fprintf(&b, "%-8s %16d %16d %16d %16s\n", r.Variant, r.MaxIterations, r.InitialTrue, r.InitialFalse, per)
	}
	return b.String()
}

// RenderTable2 prints the efficacy comparison (Table 2).
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %9s | %6s %8s | %9s | %6s %8s | %6s %8s\n",
		"#cols", "#possible", "SIA", "", "TransCls", "SIA_v1", "", "SIA_v2", "")
	fmt.Fprintf(&b, "%-6s %9s | %6s %8s | %9s | %6s %8s | %6s %8s\n",
		"", "", "valid", "optimal", "valid", "valid", "optimal", "valid", "optimal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %9d | %6d %8d | %9d | %6d %8d | %6d %8d\n",
			colName(r.NumCols), r.Possible,
			r.Valid[VariantSIA], r.Optimal[VariantSIA],
			r.TCValid,
			r.Valid[VariantSIAV1], r.Optimal[VariantSIAV1],
			r.Valid[VariantSIAV2], r.Optimal[VariantSIAV2])
	}
	return b.String()
}

// RenderTable3 prints the efficiency comparison (Table 3), times in ms.
func RenderTable3(rows []Table3Row) string {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s | %-26s | %-26s | %-26s\n", "#cols", "SIA (gen/learn/valid ms)", "SIA_v1 (gen/learn/valid ms)", "SIA_v2 (gen/learn/valid ms)")
	for _, r := range rows {
		line := func(v Variant) string {
			return fmt.Sprintf("%s / %s / %s", ms(r.Generation[v]), ms(r.Learning[v]), ms(r.Validation[v]))
		}
		fmt.Fprintf(&b, "%-6s | %-26s | %-26s | %-26s\n", colName(r.NumCols), line(VariantSIA), line(VariantSIAV1), line(VariantSIAV2))
	}
	return b.String()
}

// RenderFig7 prints the iterations-to-optimal distribution (Fig. 7).
func RenderFig7(f Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "#cols")
	prev := 0
	for _, bb := range f.Buckets {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d-%d it", prev+1, bb))
		prev = bb
	}
	fmt.Fprintf(&b, " %12s\n", "not optimal")
	for _, n := range sortedKeys(f.Counts) {
		fmt.Fprintf(&b, "%-6s", colName(n))
		for _, c := range f.Counts[n] {
			fmt.Fprintf(&b, " %10d", c)
		}
		fmt.Fprintf(&b, " %12d\n", f.NotConverged[n])
	}
	return b.String()
}

// RenderFig8 prints the final sample-count distributions (Fig. 8).
func RenderFig8(f Fig8Result) string {
	var b strings.Builder
	header := func(kind string) {
		fmt.Fprintf(&b, "%s samples\n%-6s", kind, "#cols")
		prev := 0
		for _, bb := range f.Buckets {
			fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d-%d", prev+1, bb))
			prev = bb
		}
		fmt.Fprintf(&b, " %10s\n", fmt.Sprintf(">%d", f.Buckets[len(f.Buckets)-1]))
	}
	section := func(m map[int][]int) {
		for _, n := range sortedKeys(m) {
			fmt.Fprintf(&b, "%-6s", colName(n))
			for _, c := range m[n] {
				fmt.Fprintf(&b, " %10d", c)
			}
			b.WriteByte('\n')
		}
	}
	header("TRUE")
	section(f.TrueCounts)
	header("FALSE")
	section(f.FalseCounts)
	return b.String()
}

// RenderFig9 prints the runtime scatter points and summary (Fig. 9 +
// Table 4), plus each scale's storage totals when the records come from
// Fig9Disk.
func RenderFig9(records []RuntimeRecord, summaries []Fig9Summary) string {
	var b strings.Builder
	if errs, runs := synthErrCount(records); errs > 0 {
		fmt.Fprintf(&b, "synthesis errors: %d of %d query runs executed unrewritten (see RuntimeRecord.SynthesisErr)\n", errs, runs)
	}
	for _, s := range summaries {
		fmt.Fprintf(&b, "scale=%g: rewritten=%d faster=%d (sel %.2f) 2x-faster=%d (sel %.2f) slower=%d (sel %.2f) 2x-slower=%d (sel %.2f)\n",
			s.ScaleFactor, s.Rewritten,
			s.Faster, s.AvgSelFaster,
			s.Faster2x, s.AvgSelFast2x,
			s.Slower, s.AvgSelSlower,
			s.Slower2x, s.AvgSelSlow2x)
		if s.BytesReadOrig > 0 { // segment storage: what zone-map pruning saved
			fmt.Fprintf(&b, "  storage: segments pruned=%d (%.1f%%) bytes read original=%d rewritten=%d (%.1f MB saved)\n",
				s.SegmentsPruned, 100*s.PrunedFrac, s.BytesReadOrig, s.BytesReadRw,
				float64(int64(s.BytesReadOrig)-int64(s.BytesReadRw))/(1<<20))
		}
	}
	b.WriteString("\nquery  scale  original(ms)  rewritten(ms)  speedup  selectivity\n")
	for _, r := range records {
		if !r.Rewritten {
			continue
		}
		fmt.Fprintf(&b, "%5d  %5g  %12.2f  %13.2f  %7.2f  %11.2f\n",
			r.QueryID, r.ScaleFactor,
			float64(r.Original)/float64(time.Millisecond),
			float64(r.RewrittenTime)/float64(time.Millisecond),
			r.Speedup(), r.Selectivity)
	}
	return b.String()
}

// synthErrCount tallies the query runs whose synthesis attempt failed
// outright (as opposed to validly declining to rewrite).
func synthErrCount(records []RuntimeRecord) (errs, runs int) {
	for _, r := range records {
		runs++
		if r.SynthesisErr != "" {
			errs++
		}
	}
	return errs, runs
}

// RenderFig6 prints the case-study distributions (Fig. 6).
func RenderFig6(qs []maxcompute.SimQuery) string {
	var b strings.Builder
	prospective := maxcompute.Count(qs, maxcompute.ClassProspective)
	relevant := maxcompute.Count(qs, maxcompute.ClassRelevant)
	fmt.Fprintf(&b, "population=%d syntax-based-prospective=%d symbolically-relevant=%d\n",
		len(qs), prospective, relevant)
	fmt.Fprintf(&b, "prospective queries over 10s: %.2f%% (paper: 74.63%%)\n\n",
		100*maxcompute.FractionOver(qs, maxcompute.ClassProspective, 10))
	section := func(name string, h func([]maxcompute.SimQuery, maxcompute.QueryClass) maxcompute.Histogram) {
		fmt.Fprintf(&b, "%s\n", name)
		for _, cls := range []maxcompute.QueryClass{maxcompute.ClassProspective, maxcompute.ClassRelevant} {
			hist := h(qs, cls)
			fmt.Fprintf(&b, "  %-12s", cls)
			for i, lbl := range hist.Labels {
				fmt.Fprintf(&b, " %s:%d", lbl, hist.Counts[i])
			}
			b.WriteByte('\n')
		}
	}
	section("execution time", maxcompute.HistExec)
	section("CPU consumption", maxcompute.HistCPU)
	section("memory footprint", maxcompute.HistMemory)
	return b.String()
}

// RenderMotivating prints the §2 result.
func RenderMotivating(m *MotivatingResult) string {
	return fmt.Sprintf(
		"scale=%g Q1=%v (join input %d rows) Q2=%v (join input %d rows) speedup=%.2fx output=%d rows\n",
		m.ScaleFactor, m.Q1Time.Round(time.Millisecond), m.Q1JoinIn,
		m.Q2Time.Round(time.Millisecond), m.Q2JoinIn, m.Speedup, m.OutputRows)
}

func sortedKeys(m map[int][]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
