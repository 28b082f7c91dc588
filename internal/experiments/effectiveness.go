package experiments

import (
	"fmt"
	"math"

	"lbkeogh/internal/chaincode"
	"lbkeogh/internal/classify"
	"lbkeogh/internal/core"
	"lbkeogh/internal/imagedist"
	"lbkeogh/internal/shape"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// LandmarkResult reports the Yoga-style landmark-vs-rotation experiment
// (Section 5.1): classification error with landmark alignment versus exact
// rotation-invariant matching, under ED and DTW. The paper found rotation
// invariance cut the Yoga error by a factor of three (17.0% → 4.70% for ED).
type LandmarkResult struct {
	Dataset                 string
	LandmarkED, LandmarkDTW float64 // percent error, argmax-landmark aligned
	RotInvED, RotInvDTW     float64 // percent error, exact rotation invariance
	R                       int
}

// LandmarkVsRotation classifies one of the Table 8 datasets twice: once with
// the brittle "most protruding point" landmark alignment and plain (fixed-
// alignment) 1-NN, and once with exact rotation-invariant 1-NN.
func LandmarkVsRotation(name string, sizeScale float64, r int) (*LandmarkResult, error) {
	d, err := synth.Table8Dataset(name, sizeScale)
	if err != nil {
		return nil, err
	}
	aligned := make([][]float64, len(d.Series))
	for i, s := range d.Series {
		aligned[i] = ts.AlignToMax(s)
	}
	lmED, _ := classify.LeaveOneOutAligned(aligned, d.Labels, wedge.ED{})
	lmDTW, _ := classify.LeaveOneOutAligned(aligned, d.Labels, wedge.DTW{R: r})
	opts := core.DefaultOptions()
	riED, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.ED{}, opts)
	riDTW, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.DTW{R: r}, opts)
	return &LandmarkResult{
		Dataset:     name,
		LandmarkED:  100 * lmED,
		LandmarkDTW: 100 * lmDTW,
		RotInvED:    100 * riED,
		RotInvDTW:   100 * riDTW,
		R:           r,
	}, nil
}

// ImageSpaceResult reports the Section 5.1 MixedBag aside: error rates of
// the image-space Chamfer and Hausdorff measures versus the 1-D signature
// with rotation-invariant Euclidean distance, on the same rasters. The paper
// reports Chamfer 6.0%, Hausdorff 7.0%, Euclidean 4.375%.
type ImageSpaceResult struct {
	Instances             int
	ChamferErr            float64
	HausdorffErr          float64
	SignatureEuclideanErr float64
}

// ImageSpaceBaselines rasterizes a MixedBag-style collection and classifies
// it three ways: Chamfer and Hausdorff with brute-force rotation search in
// image space, and the centroid-distance signature under exact rotation-
// invariant Euclidean distance.
func ImageSpaceBaselines(seed int64, classes, perClass, size, rotations, sigLen int) (*ImageSpaceResult, error) {
	if classes < 2 || perClass < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 classes and instances, got %d/%d", classes, perClass)
	}
	bitmaps, labels := synth.RasterMixedBag(seed, classes, perClass, size)
	m := len(bitmaps)

	classifyMetric := func(metric func(a, b *shape.Bitmap) float64) float64 {
		errs := 0
		for i := range bitmaps {
			best, bestJ := math.Inf(1), -1
			for j := range bitmaps {
				if j == i {
					continue
				}
				if d := imagedist.MinOverRotations(bitmaps[i], bitmaps[j], rotations, metric); d < best {
					best, bestJ = d, j
				}
			}
			if labels[bestJ] != labels[i] {
				errs++
			}
		}
		return 100 * float64(errs) / float64(m)
	}

	res := &ImageSpaceResult{Instances: m}
	res.ChamferErr = classifyMetric(imagedist.ChamferSym)
	res.HausdorffErr = classifyMetric(imagedist.Hausdorff)

	sigs := make([][]float64, m)
	for i, b := range bitmaps {
		sig, err := shape.Signature(b, sigLen)
		if err != nil {
			return nil, fmt.Errorf("experiments: signature of raster %d: %w", i, err)
		}
		sigs[i] = sig
	}
	edErr, _ := classify.LeaveOneOut(sigs, labels, wedge.ED{}, core.DefaultOptions())
	res.SignatureEuclideanErr = 100 * edErr
	return res, nil
}

// SamplingResult reports the contour-sampling experiment (Sections 2.3 and
// 5.1): heavy down-sampling of the contour, claimed in the fish-recognition
// literature to "retain the important shape features", costs real accuracy
// versus matching the full-resolution signature.
type SamplingResult struct {
	Dataset             string
	FullLen, SampledLen int
	FullErr, SampledErr float64
}

// SamplingAblation classifies a dataset at full signature resolution and
// again with every signature down-sampled to sampledLen points (then both
// under exact rotation-invariant ED).
func SamplingAblation(name string, sizeScale float64, sampledLen int) (*SamplingResult, error) {
	d, err := synth.Table8Dataset(name, sizeScale)
	if err != nil {
		return nil, err
	}
	if sampledLen < 4 || sampledLen >= d.N {
		return nil, fmt.Errorf("experiments: sampledLen %d outside [4, %d)", sampledLen, d.N)
	}
	opts := core.DefaultOptions()
	fullErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.ED{}, opts)
	down := make([][]float64, len(d.Series))
	for i, s := range d.Series {
		r, err := ts.Resample(s, sampledLen)
		if err != nil {
			return nil, err
		}
		down[i] = ts.ZNorm(r)
	}
	dsErr, _ := classify.LeaveOneOut(down, d.Labels, wedge.ED{}, opts)
	return &SamplingResult{
		Dataset: name, FullLen: d.N, SampledLen: sampledLen,
		FullErr: 100 * fullErr, SampledErr: 100 * dsErr,
	}, nil
}

// OcclusionResult compares the three measures on occlusion-heavy data
// (Figures 14–15: broken projectile points, the Skhul V skull): LCSS can
// ignore the missing region, DTW must warp across it, ED pays in full.
type OcclusionResult struct {
	EDErr, DTWErr, LCSSErr float64
}

// OcclusionRobustness builds a dataset in which a fraction of instances have
// a large occluded (flattened) contour region, then classifies with ED, DTW
// and LCSS.
func OcclusionRobustness(seed int64, classes, perClass, n int, occlusionP float64, r int, eps float64) (*OcclusionResult, error) {
	if classes < 2 || perClass < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 classes and instances")
	}
	cfg := synth.DefaultInstanceConfig()
	cfg.OcclusionP = occlusionP
	cfg.Articulation = 0.05
	d := synth.MakeClassDataset("occlusion", seed, classes, perClass, n, false, cfg)
	opts := core.DefaultOptions()
	edErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.ED{}, opts)
	dtwErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.DTW{R: r}, opts)
	lcssErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.LCSS{Delta: r, Eps: eps}, opts)
	return &OcclusionResult{EDErr: 100 * edErr, DTWErr: 100 * dtwErr, LCSSErr: 100 * lcssErr}, nil
}

// ChainCodeResult reports the Section 2.3 comparison against the
// discretized chain-code pipeline of Marzal & Palazón [23]: classification
// error of cyclic-edit-distance 1-NN on chain codes versus rotation-
// invariant ED on signatures extracted from the very same rasters, plus the
// per-comparison cost of each (the [23] cost model n²·log n versus the
// measured wedge num_steps).
type ChainCodeResult struct {
	Instances         int
	ChainCodeErr      float64
	SignatureErr      float64
	ChainCodeSteps    float64 // reference-algorithm cost model per comparison
	SignatureSteps    float64 // measured wedge steps per comparison (incl. set-up)
	SpeedupOverChains float64
}

// ChainCodeBaseline rasterizes a MixedBag-style collection and classifies it
// with both pipelines.
func ChainCodeBaseline(seed int64, classes, perClass, size, sigLen int) (*ChainCodeResult, error) {
	if classes < 2 || perClass < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 classes and instances")
	}
	bitmaps, labels := synth.RasterMixedBag(seed, classes, perClass, size)
	m := len(bitmaps)

	codes := make([][]byte, m)
	var avgCodeLen float64
	for i, b := range bitmaps {
		code, err := chaincode.FromBitmap(b)
		if err != nil {
			return nil, fmt.Errorf("experiments: chain code of raster %d: %w", i, err)
		}
		codes[i] = code
		avgCodeLen += float64(len(code))
	}
	avgCodeLen /= float64(m)

	ccErrs := 0
	for i := range codes {
		best, bestJ := math.Inf(1), -1
		for j := range codes {
			if j == i {
				continue
			}
			if d := chaincode.CyclicEditDistance(codes[i], codes[j], chaincode.AngularSubstCost, 1); d < best {
				best, bestJ = d, j
			}
		}
		if labels[bestJ] != labels[i] {
			ccErrs++
		}
	}

	sigs := make([][]float64, m)
	for i, b := range bitmaps {
		sig, err := shape.Signature(b, sigLen)
		if err != nil {
			return nil, err
		}
		sigs[i] = sig
	}
	var cnt stats.Counter
	sigErrs := 0
	for i := range sigs {
		rs := core.NewRotationSet(sigs[i], core.DefaultOptions(), &cnt)
		s := core.NewSearcher(rs, wedge.ED{}, core.Wedge, core.SearcherConfig{})
		best, bestJ := math.Inf(1), -1
		for j := range sigs {
			if j == i {
				continue
			}
			match := s.MatchSeries(sigs[j], best, &cnt)
			if match.Found() && match.Dist < best {
				best, bestJ = match.Dist, j
			}
		}
		if labels[bestJ] != labels[i] {
			sigErrs++
		}
	}

	res := &ChainCodeResult{
		Instances:      m,
		ChainCodeErr:   100 * float64(ccErrs) / float64(m),
		SignatureErr:   100 * float64(sigErrs) / float64(m),
		ChainCodeSteps: chaincode.ReferenceSteps(int(avgCodeLen)),
		SignatureSteps: float64(cnt.Steps()) / float64(m*(m-1)),
	}
	if res.SignatureSteps > 0 {
		res.SpeedupOverChains = res.ChainCodeSteps / res.SignatureSteps
	}
	return res, nil
}

// ProbeSensitivityResult reports wedge-search cost as a function of the
// dynamic-K controller's single parameter (the paper's probe interval count,
// which sets the resolution of the controller's K ladder). The paper reports
// any value in 3..20 stays within 4% (Section 5.3).
type ProbeSensitivityResult struct {
	Intervals []int
	Steps     []float64 // steps per comparison
	MaxSpread float64   // (max-min)/min over the measured settings
}

// ProbeIntervalSensitivity measures the wedge strategy's per-comparison cost
// across controller settings on a projectile-point scan.
func ProbeIntervalSensitivity(seed int64, m, n, queries int, intervals []int) (*ProbeSensitivityResult, error) {
	if len(intervals) < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 interval settings")
	}
	all := synth.ProjectilePoints(seed, m+queries, n)
	db := all[:m]
	res := &ProbeSensitivityResult{Intervals: intervals}
	for _, iv := range intervals {
		var cnt stats.Counter
		for _, q := range all[m:] {
			rs := core.NewRotationSet(q, core.DefaultOptions(), &cnt)
			s := core.NewSearcher(rs, wedge.ED{}, core.Wedge, core.SearcherConfig{ProbeIntervals: iv})
			s.Scan(db, &cnt)
		}
		res.Steps = append(res.Steps, float64(cnt.Steps())/float64(m*queries))
	}
	lo, hi := res.Steps[0], res.Steps[0]
	for _, s := range res.Steps {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	res.MaxSpread = (hi - lo) / lo
	return res, nil
}
