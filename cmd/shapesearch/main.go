// Command shapesearch answers rotation-invariant nearest-neighbour queries
// over a CSV database (as written by mkdata): the query is a row index, the
// database the remaining rows.
//
// Usage:
//
//	mkdata -dataset projectile -m 500 > db.csv
//	shapesearch -db db.csv -query 17 -k 5 -measure dtw -r 5
//	shapesearch -db db.csv -query 3 -mirror -maxdeg 45
//	shapesearch -db db.csv -query 4 -indexed -dims 16
//	shapesearch -db db.csv -query 4 -stats          # pruning breakdown as JSON
//	shapesearch -db db.csv -query 4 -explain        # per-bound tightness as JSON
//	shapesearch -db db.csv -query 4 -serve :8080    # trace the search, then serve
//	                                                # /metrics, /debug/lbkeogh and
//	                                                # /debug/pprof/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"lbkeogh"
	"lbkeogh/internal/seriesio"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "CSV database file (label,v0,v1,...)")
		queryI   = flag.Int("query", 0, "row index of the query")
		k        = flag.Int("k", 1, "number of neighbours to report")
		measure  = flag.String("measure", "euclidean", "euclidean | dtw | lcss")
		r        = flag.Int("r", 5, "DTW Sakoe-Chiba radius / LCSS window")
		eps      = flag.Float64("eps", 0.25, "LCSS matching threshold")
		mirror   = flag.Bool("mirror", false, "enable mirror-image invariance")
		maxDeg   = flag.Float64("maxdeg", -1, "rotation limit in degrees (<0: unlimited)")
		indexed  = flag.Bool("indexed", false, "search through the compressed disk index")
		dims     = flag.Int("dims", 16, "index dimensionality (with -indexed)")
		radius   = flag.Float64("radius", -1, "range query: report every match strictly within this distance (>0), flat or with -indexed")
		parallel = flag.Int("parallel", 1, "worker goroutines for a flat nearest-neighbour scan (0 = GOMAXPROCS); not with -indexed, -k > 1 or -radius")
		emitStat = flag.Bool("stats", false, "print the search's pruning breakdown as JSON after the results")
		explain  = flag.Bool("explain", false, "measure every lower bound and the true distance on every comparison and print the per-bound tightness as JSON after the results and -stats (-parallel scans are not sampled)")
		serveOn  = flag.String("serve", "", "trace the search (every query sampled), then serve /metrics (Prometheus text), /debug/lbkeogh (the trace log as JSON and Chrome trace-event files) and /debug/pprof/ on this address and block")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "shapesearch: -db is required")
		os.Exit(2)
	}
	if *parallel != 1 {
		for _, c := range []struct {
			flag string
			set  bool
		}{{"-indexed", *indexed}, {"-k", *k > 1}, {"-radius", *radius > 0}} {
			if c.set {
				fmt.Fprintf(os.Stderr, "shapesearch: -parallel answers the nearest neighbour by a flat scan only; drop %s or -parallel\n", c.flag)
				os.Exit(2)
			}
		}
	}
	labels, series, err := seriesio.ReadCSV(*dbPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
		os.Exit(1)
	}
	if *queryI < 0 || *queryI >= len(series) {
		fmt.Fprintf(os.Stderr, "shapesearch: query index %d outside [0,%d)\n", *queryI, len(series))
		os.Exit(2)
	}

	var m lbkeogh.Measure
	switch *measure {
	case "euclidean":
		m = lbkeogh.Euclidean()
	case "dtw":
		m = lbkeogh.DTW(*r)
	case "lcss":
		m = lbkeogh.LCSS(*r, *eps)
	default:
		fmt.Fprintf(os.Stderr, "shapesearch: unknown measure %q\n", *measure)
		os.Exit(2)
	}
	var opts []lbkeogh.QueryOption
	if *mirror {
		opts = append(opts, lbkeogh.WithMirrorInvariance())
	}
	if *maxDeg >= 0 {
		opts = append(opts, lbkeogh.WithMaxRotationDegrees(*maxDeg))
	}
	var tlog *lbkeogh.TraceLog
	if *serveOn != "" {
		tlog = lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
		opts = append(opts, lbkeogh.WithTraceLog(tlog))
	}

	query := series[*queryI]
	db := make([]lbkeogh.Series, 0, len(series)-1)
	dbRows := make([]int, 0, len(series)-1)
	for i, s := range series {
		if i != *queryI {
			db = append(db, s)
			dbRows = append(dbRows, i)
		}
	}

	q, err := lbkeogh.NewQuery(query, m, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
		os.Exit(1)
	}
	var sampler *lbkeogh.BoundSampler
	if *explain {
		sampler = lbkeogh.NewBoundSampler(1)
		q.SetBoundSampler(sampler)
	}

	if *serveOn != "" {
		go func() {
			err := http.ListenAndServe(*serveOn, obsMux(q, tlog))
			fmt.Fprintf(os.Stderr, "shapesearch: serve %s: %v\n", *serveOn, err)
			os.Exit(1)
		}()
	}

	var results []lbkeogh.SearchResult
	switch {
	case *indexed:
		ix, err := lbkeogh.NewIndex(db, *dims)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
		if *radius > 0 {
			results, err = ix.SearchRange(q, *radius)
		} else {
			results, err = ix.SearchTopK(q, *k)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("index fetched %d of %d objects from disk\n", ix.DiskReads(), ix.Len())
	case *parallel != 1:
		res, err := q.SearchParallel(db, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
		results = []lbkeogh.SearchResult{res}
	case *radius > 0:
		results, err = q.SearchRange(db, *radius)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
	default:
		results, err = q.SearchTopK(db, *k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("query: row %d (label %d), measure %s, %d alignments, %d steps spent\n",
		*queryI, labels[*queryI], m.Name(), q.Rotations(), q.Steps())
	for rank, res := range results {
		mir := ""
		if res.Rotation.Mirrored {
			mir = " (mirrored)"
		}
		fmt.Printf("  #%d: row %d (label %d)  dist %.4f  at %.1f°%s\n",
			rank+1, dbRows[res.Index], labels[dbRows[res.Index]], res.Dist, res.Rotation.Degrees, mir)
	}

	if *emitStat {
		emitJSON("-stats", q.Stats()) // an indexed search runs through the query too
	}
	if *explain {
		emitJSON("-explain", sampler.Snapshot())
	}
	if *serveOn != "" {
		fmt.Printf("search done; serving /metrics, /debug/lbkeogh and /debug/pprof/ on %s (interrupt to stop)\n", *serveOn)
		select {}
	}
}

// emitJSON prints v as indented JSON, exiting on encoding failure.
func emitJSON(what string, v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "shapesearch: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// obsMux mounts the observability surface over the query's record (an
// indexed search runs through the query too) and the trace log.
func obsMux(q *lbkeogh.Query, tlog *lbkeogh.TraceLog) *http.ServeMux {
	mux := http.NewServeMux()
	lbkeogh.HandleObs(mux, tlog,
		func(w io.Writer) { lbkeogh.WriteMetrics(w, "shapesearch_query", q.Stats()) },
		func(w io.Writer) { tlog.WriteMetrics(w, "shapesearch_query") })
	return mux
}
