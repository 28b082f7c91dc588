package trace

import "lbkeogh/internal/obs"

// Stage identifies what a span measures. Stages are a closed enum so the
// per-stage latency histograms can live in a fixed array and the hot paths
// never format a string.
type Stage uint8

const (
	// StageSearch is the root span of one public search call (Search,
	// SearchTopK, SearchParallel, Distance, Match, or an index query).
	StageSearch Stage = iota
	// StageBuild is the root span of one query compilation (NewQuery).
	StageBuild
	// StageRotationMatrix covers expanding the rotation matrix and computing
	// the circulant distance profiles.
	StageRotationMatrix
	// StageWedgeBuild covers agglomerative clustering plus merging the
	// per-node envelopes of the wedge hierarchy.
	StageWedgeBuild
	// StageComparison covers one MatchSeries call: one database series
	// matched against every admitted rotation.
	StageComparison
	// StageVPProbe covers one VP-tree probe of an indexed Euclidean query.
	StageVPProbe
	// StageColumnProbe covers one PAA-column walk of an indexed DTW query.
	StageColumnProbe
	// StageFetch covers one full-resolution record fetch for verification.
	StageFetch
	// StageDiskRead covers one record read from the series store
	// (histogram-only: the index feeds it each fetch span's duration).
	StageDiskRead
	// StageMonitorFilter covers one full-window filter pass of a stream
	// monitor (histogram-only).
	StageMonitorFilter

	// NumStages bounds the Stage enum; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	StageSearch:         "search",
	StageBuild:          "build",
	StageRotationMatrix: "rotation_matrix",
	StageWedgeBuild:     "wedge_build",
	StageComparison:     "comparison",
	StageVPProbe:        "vp_probe",
	StageColumnProbe:    "paa_probe",
	StageFetch:          "fetch",
	StageDiskRead:       "disk_read",
	StageMonitorFilter:  "monitor_filter",
}

// String returns the stable lowercase stage name used in exports, metrics
// and the dashboard.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageFromName returns the Stage with the given String(), or NumStages when
// no stage matches.
func StageFromName(name string) Stage {
	for s, n := range stageNames {
		if n == name {
			return Stage(s)
		}
	}
	return NumStages
}

// Span is one timed region of a trace. Start is nanoseconds since the
// trace's monotonic anchor; Dur its length in nanoseconds. Parent indexes
// the trace's span slice (-1 for roots). Ref carries a stage-specific id:
// the database index of a comparison, the record id of a fetch, -1 when
// meaningless.
type Span struct {
	Parent int32      `json:"parent"`
	Stage  Stage      `json:"-"`
	Ref    int32      `json:"ref"`
	Start  int64      `json:"start_ns"`
	Dur    int64      `json:"dur_ns"`
	Attrs  obs.Counts `json:"attrs,omitempty"`
}

// End returns the span's end offset in nanoseconds.
func (s Span) End() int64 { return s.Start + s.Dur }
