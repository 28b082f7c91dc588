// Command shapeingest bulk-loads synthetic shapes into a memory-mapped
// segment store (internal/segment) — the ingest half of the million-shape
// serving path. Workers generate batches and precompute the compressed
// feature columns (FFT magnitudes, PAA means) in parallel; a single writer
// goroutine streams records into segment files, cutting a new segment every
// -segment-records rows, and commits the whole load with one atomic
// manifest swap.
//
// The load writes the raw and feature columns and builds no index: a
// -segments server flat-scans the store, and lbkeogh.OpenSegmentIndex builds
// a VP-tree from the stored feature columns when a program asks for one.
//
// Progress is reported as structured log events on stderr (JSON by default;
// see -log): periodic row counts, then one line per stage as it completes.
// On success the process prints a single-line JSON run summary to stdout —
// rows, throughput, bytes written, the segments the load added (read from
// the manifest it published), and per-stage durations — for scripts to
// consume.
//
// Typical sessions:
//
//	shapeingest -dir /data/shapes -count 1000000 -n 64
//	shapeingest -dir /data/shapes -count 50000 -n 64 -verify
//	shapeserver -addr :8321 -segments /data/shapes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/synth"
)

func main() {
	var (
		dir        = flag.String("dir", "", "segment store directory (required)")
		count      = flag.Int64("count", 50000, "shapes to generate and ingest")
		n          = flag.Int("n", 64, "series length per shape")
		dims       = flag.Int("dims", 8, "feature dims stored per record (clamped to n/2)")
		batch      = flag.Int("batch", 1024, "shapes per generator batch")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "feature-computation workers")
		segRecords = flag.Int64("segment-records", 1<<17, "records per segment file")
		maxRows    = flag.Int64("max-rows", 10_000_000, "safety cap on total store rows after the load")
		dataset    = flag.String("dataset", "projectile", "generator: projectile | heterogeneous")
		seed       = flag.Int64("seed", 1, "generator seed")
		progress   = flag.Duration("progress", 2*time.Second, "progress report interval (0 disables)")
		verify     = flag.Bool("verify", false, "reopen the store with full checksum verification after the load")
		logFormat  = flag.String("log", "json", "structured log format: json or text")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	logger := ops.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err := run(logger, *dir, *count, *n, *dims, *batch, *workers, *segRecords, *maxRows,
		*dataset, *seed, *progress, *verify); err != nil {
		logger.Error("ingest failed", "error", err.Error())
		os.Exit(1)
	}
}

// genBatch is one worker's output: a contiguous run of records with features
// precomputed, keyed by batch index so the writer commits in global order.
type genBatch struct {
	idx    int
	rows   [][]float64
	mags   [][]float64
	paas   [][]float64
	labels []int64
}

// runSummary is the single-line JSON report printed to stdout on success.
type runSummary struct {
	Rows         int64              `json:"rows"`
	RowsPerS     float64            `json:"rows_per_s"`
	BytesWritten int64              `json:"bytes_written"`
	Segments     int                `json:"segments"` // added by this run
	StoreRows    int64              `json:"store_rows"`
	StageSeconds map[string]float64 `json:"stage_seconds"`
}

func run(logger *slog.Logger, dir string, count int64, n, dims int, batch int, workers int,
	segRecords, maxRows int64, dataset string, seed int64,
	progress time.Duration, verify bool) error {
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if count < 1 {
		return fmt.Errorf("-count must be >= 1")
	}
	if n < 2 {
		return fmt.Errorf("-n must be >= 2")
	}
	if batch < 1 || workers < 1 {
		return fmt.Errorf("-batch and -workers must be >= 1")
	}
	var gen func(seed int64, m, n int) [][]float64
	switch dataset {
	case "projectile":
		gen = synth.ProjectilePoints
	case "heterogeneous":
		gen = synth.Heterogeneous
	default:
		return fmt.Errorf("unknown -dataset %q (projectile | heterogeneous)", dataset)
	}
	d := segment.FeatureDims(dims, n)

	// The segments the load adds are the published manifest's count less
	// this one's.
	m0, _, err := segment.LoadManifest(dir)
	if err != nil {
		return err
	}
	b, err := segment.NewBulkWriter(dir, n, d, segRecords)
	if err != nil {
		return err
	}
	if have := b.Total(); have+count > maxRows {
		b.Abort()
		return fmt.Errorf("load would put the store at %d rows, over the -max-rows cap %d", have+count, maxRows)
	}
	firstID := b.Total()
	logger.Info("ingest starting", "dir", dir, "count", count, "n", n, "dims", d,
		"dataset", dataset, "workers", workers, "segment_records", segRecords, "existing_rows", firstID)

	// Parallel generate+featurize, ordered single-writer commit. Workers pull
	// batch indexes, push completed batches; the writer drains them in index
	// order so global IDs are deterministic for a given seed.
	numBatches := int((count + int64(batch) - 1) / int64(batch))
	idxCh := make(chan int, workers)
	outCh := make(chan genBatch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				size := batch
				if rem := count - int64(idx)*int64(batch); rem < int64(size) {
					size = int(rem)
				}
				// Each batch draws from its own deterministic stream, so the
				// load is reproducible at any worker count.
				rows := gen(seed+int64(idx), size, n)
				gb := genBatch{
					idx:    idx,
					rows:   rows,
					mags:   make([][]float64, size),
					paas:   make([][]float64, size),
					labels: make([]int64, size),
				}
				for i, row := range rows {
					gb.mags[i], gb.paas[i] = segment.Features(row, d)
					gb.labels[i] = firstID + int64(idx)*int64(batch) + int64(i)
				}
				outCh <- gb
			}
		}()
	}
	go func() {
		for idx := 0; idx < numBatches; idx++ {
			idxCh <- idx
		}
		close(idxCh)
		wg.Wait()
		close(outCh)
	}()

	start := time.Now()
	lastReport := start
	var written int64
	pending := make(map[int]genBatch)
	nextIdx := 0
	for gb := range outCh {
		pending[gb.idx] = gb
		for {
			cur, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			for i := range cur.rows {
				if err := b.AddPrecomputed(cur.rows[i], cur.mags[i], cur.paas[i], cur.labels[i]); err != nil {
					b.Abort()
					return err
				}
			}
			written += int64(len(cur.rows))
			nextIdx++
		}
		if progress > 0 && time.Since(lastReport) >= progress {
			lastReport = time.Now()
			elapsed := time.Since(start).Seconds()
			logger.Info("ingest progress", "rows", written, "total", count,
				"rows_per_s", float64(written)/elapsed)
		}
	}
	if written != count {
		b.Abort()
		return fmt.Errorf("wrote %d of %d rows", written, count)
	}
	if err := b.Close(); err != nil {
		return err
	}
	ingestSecs := time.Since(start).Seconds()
	m, ok, err := segment.LoadManifest(dir)
	if err != nil || !ok {
		return fmt.Errorf("published manifest: ok=%v err=%v", ok, err)
	}
	summary := runSummary{
		Rows:         count,
		RowsPerS:     float64(count) / ingestSecs,
		BytesWritten: b.BytesWritten(),
		Segments:     len(m.Segments) - len(m0.Segments),
		StoreRows:    firstID + count,
		StageSeconds: map[string]float64{"generate_ingest": ingestSecs},
	}
	logger.Info("ingest complete", "rows", count, "seconds", ingestSecs,
		"rows_per_s", summary.RowsPerS, "bytes_written", summary.BytesWritten,
		"segments", summary.Segments, "generation", m.Generation,
		"store_rows", summary.StoreRows, "dir", dir)

	if verify {
		vStart := time.Now()
		var total int64
		for _, ms := range m.Segments {
			r, err := segment.Open(dir + "/" + ms.File) // full CRC verification
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			if int64(r.Len()) != ms.Records {
				r.Close()
				return fmt.Errorf("verify: %s holds %d records, manifest says %d", ms.File, r.Len(), ms.Records)
			}
			total += ms.Records
			r.Close()
		}
		if total != firstID+count {
			return fmt.Errorf("verify: store holds %d rows, want %d", total, firstID+count)
		}
		summary.StageSeconds["verify"] = time.Since(vStart).Seconds()
		logger.Info("verify complete", "segments", len(m.Segments), "rows", total,
			"checksums", "good", "seconds", summary.StageSeconds["verify"])
	}

	out, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
