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
//	shapesearch -db db.csv -query 4 -pprof :8080    # serve /metrics + pprof
//	shapesearch -db db.csv -query 4 -serve :8080    # trace the search and serve
//	                                                # the /debug/lbkeogh dashboard
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"

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
		radius   = flag.Float64("radius", -1, "range query: report all matches within this distance (with -indexed)")
		parallel = flag.Int("parallel", 1, "worker goroutines for the linear scan (0 = GOMAXPROCS)")
		emitStat = flag.Bool("stats", false, "print the search's pruning breakdown as JSON after the results")
		explain  = flag.Bool("explain", false, "run the search in EXPLAIN mode and print the structured plan (stage waterfall, bound tightness) as JSON")
		health   = flag.Bool("index-health", false, "print the index structural health report (VP-tree, wedge hierarchy) as JSON; builds the index if -indexed is off")
		pprofOn  = flag.String("pprof", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof/ on this address and block after the search")
		serveOn  = flag.String("serve", "", "like -pprof, but additionally trace the search (every query sampled) and serve the live /debug/lbkeogh dashboard")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "shapesearch: -db is required")
		os.Exit(2)
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
	addr := *serveOn
	if addr == "" {
		addr = *pprofOn
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
	if *explain {
		q.SetExplain(true)
	}

	sources := newSourceSet()
	sources.add("shapesearch_query", q, tlog)
	if addr != "" {
		lbkeogh.PublishExpvar("shapesearch_query", q)
		go serveObs(addr, sources)
	}

	var results []lbkeogh.SearchResult
	var statIx *lbkeogh.Index
	switch {
	case *indexed:
		ix, err := lbkeogh.NewIndex(db, *dims)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shapesearch: %v\n", err)
			os.Exit(1)
		}
		statIx = ix
		ix.SetTraceLog(tlog) // nil when untraced: a no-op attach
		sources.add("shapesearch_index", ix, nil)
		if *radius > 0 {
			results, err = ix.SearchRange(q, *radius)
		} else {
			var res lbkeogh.SearchResult
			res, err = ix.Search(q)
			results = []lbkeogh.SearchResult{res}
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

	if *explain {
		plan := q.Explain()
		if plan == nil {
			fmt.Fprintln(os.Stderr, "shapesearch: -explain: no plan recorded")
			os.Exit(1)
		}
		fmt.Printf("explain plan (waterfall reconciles: %v):\n", plan.Waterfall.Reconciles())
		emitJSON("-explain", plan)
	}
	if *health {
		ix := statIx
		if ix == nil {
			ix, err = lbkeogh.NewIndex(db, *dims)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shapesearch: -index-health: %v\n", err)
				os.Exit(1)
			}
		}
		report := struct {
			Dims  int                    `json:"dims"`
			Index lbkeogh.IndexHealth    `json:"index"`
			Wedge lbkeogh.WedgeTreeStats `json:"wedge"`
		}{Dims: ix.Dims(), Index: ix.Health(), Wedge: q.WedgeStats()}
		fmt.Println("index health:")
		emitJSON("-index-health", report)
	}
	if *emitStat {
		emitJSON("-stats", q.Stats()) // an indexed search runs through the query too
	}
	if addr != "" {
		fmt.Printf("search done; serving /metrics, /debug/lbkeogh and /debug/pprof/ on %s (interrupt to stop)\n", addr)
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

// sourceSet is a mutex-guarded set of stats sources and trace logs: the
// index source is registered after the metrics server is already running.
type sourceSet struct {
	mu   sync.Mutex
	m    map[string]lbkeogh.StatsSource
	logs map[string]*lbkeogh.TraceLog
}

func newSourceSet() *sourceSet {
	return &sourceSet{
		m:    map[string]lbkeogh.StatsSource{},
		logs: map[string]*lbkeogh.TraceLog{},
	}
}

func (s *sourceSet) add(name string, src lbkeogh.StatsSource, t *lbkeogh.TraceLog) {
	s.mu.Lock()
	s.m[name] = src
	if t != nil {
		s.logs[name] = t
	}
	s.mu.Unlock()
}

func (s *sourceSet) snapshot() (map[string]lbkeogh.StatsSource, map[string]*lbkeogh.TraceLog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]lbkeogh.StatsSource, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	logs := make(map[string]*lbkeogh.TraceLog, len(s.logs))
	for k, v := range s.logs {
		logs[k] = v
	}
	return out, logs
}

// serveObs serves the public metrics handler, the trace dashboard, expvar
// and the pprof profiles on a private mux.
func serveObs(addr string, sources *sourceSet) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		src, _ := sources.snapshot()
		lbkeogh.MetricsHandler(src).ServeHTTP(w, r)
	}))
	mux.Handle("/debug/lbkeogh", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		src, logs := sources.snapshot()
		lbkeogh.DebugHandler(src, logs).ServeHTTP(w, r)
	}))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "shapesearch: serve %s: %v\n", addr, err)
		os.Exit(1)
	}
}
