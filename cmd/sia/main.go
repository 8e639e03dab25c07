// Command sia synthesizes a valid predicate over a target column set from
// a SQL predicate, printing the result and synthesis statistics.
//
// Usage:
//
//	sia -schema 'l_shipdate:date,l_commitdate:date,o_orderdate:date' \
//	    -cols l_commitdate,l_shipdate \
//	    -pred "l_shipdate - o_orderdate < 20 AND
//	           l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 AND
//	           o_orderdate < DATE '1993-06-01'"
//
// Column types: int, double, date, timestamp; append '?' for nullable
// (e.g. "v:int?").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sia/internal/core"
	"sia/internal/predicate"
)

func main() {
	schemaFlag := flag.String("schema", "", "comma-separated name:type column list")
	predFlag := flag.String("pred", "", "SQL predicate to reduce")
	colsFlag := flag.String("cols", "", "comma-separated target columns")
	maxIter := flag.Int("max-iterations", 41, "learning-loop iteration budget")
	variant := flag.String("variant", "sia", "configuration: sia, sia_v1, sia_v2")
	timeout := flag.Duration("timeout", 30*time.Second, "synthesis wall-clock budget")
	verbose := flag.Bool("v", false, "print timing and sample statistics")
	flag.Parse()

	if *schemaFlag == "" || *predFlag == "" || *colsFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	schema, err := parseSchema(*schemaFlag)
	if err != nil {
		fatal(err)
	}
	pred, err := predicate.Parse(*predFlag, schema)
	if err != nil {
		fatal(err)
	}
	cols := strings.Split(*colsFlag, ",")
	for i := range cols {
		cols[i] = strings.TrimSpace(cols[i])
	}

	var opts core.Options
	switch strings.ToLower(*variant) {
	case "sia":
		opts = core.PresetSIA()
	case "sia_v1":
		opts = core.PresetSIAV1()
	case "sia_v2":
		opts = core.PresetSIAV2()
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	opts.MaxIterations = *maxIter
	opts.Timeout = *timeout

	res, err := core.SynthesizeContext(context.Background(), pred, cols, schema, opts)
	if err != nil {
		fatal(err)
	}
	switch {
	case res.Predicate == nil:
		fmt.Printf("no non-trivial valid predicate (%s)\n", res.GaveUp)
	default:
		fmt.Println(res.Predicate)
		status := "valid"
		if res.Optimal {
			status = "valid, optimal"
		}
		fmt.Printf("-- %s after %d iterations\n", status, res.Iterations)
	}
	if *verbose {
		fmt.Printf("-- samples: %d TRUE, %d FALSE\n", res.TrueSamples, res.FalseSamples)
		fmt.Printf("-- time: generation %v, learning %v, validation %v\n",
			res.Timing.Generation.Round(time.Microsecond),
			res.Timing.Learning.Round(time.Microsecond),
			res.Timing.Validation.Round(time.Microsecond))
	}
	if res.Predicate == nil {
		os.Exit(1)
	}
}

func parseSchema(s string) (*predicate.Schema, error) {
	var cols []predicate.Column
	for _, part := range strings.Split(s, ",") {
		nameType := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(nameType) != 2 {
			return nil, fmt.Errorf("bad column spec %q (want name:type)", part)
		}
		typeName := nameType[1]
		nullable := strings.HasSuffix(typeName, "?")
		typeName = strings.TrimSuffix(typeName, "?")
		var t predicate.Type
		switch strings.ToLower(typeName) {
		case "int", "integer":
			t = predicate.TypeInteger
		case "double", "float":
			t = predicate.TypeDouble
		case "date":
			t = predicate.TypeDate
		case "timestamp":
			t = predicate.TypeTimestamp
		default:
			return nil, fmt.Errorf("unknown type %q", typeName)
		}
		cols = append(cols, predicate.Column{Name: nameType[0], Type: t, NotNull: !nullable})
	}
	return predicate.NewSchema(cols...), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sia:", err)
	os.Exit(1)
}
