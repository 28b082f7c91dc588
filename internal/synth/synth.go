// Package synth generates the synthetic datasets that stand in for the
// paper's real image collections (see DESIGN.md, substitutions): projectile
// points, the heterogeneous mix, the ten Table-8 classification families,
// procedural "skulls" for the clustering figures, and glyphs for the
// mirror-invariance and rotation-limited demos.
//
// Every generator is driven by an explicit seed and returns z-normalized
// centroid-distance signatures at arbitrary rotation, i.e. exactly the input
// the paper's algorithms consume. Class structure is created in the radius
// domain: a per-class base contour plus per-instance harmonics, articulation
// (feature positions slide along the contour — the distortion DTW absorbs
// and ED cannot), occlusion and noise.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"lbkeogh/internal/shape"
	"lbkeogh/internal/ts"
)

// classBase builds a deterministic per-class base contour: a superformula
// backbone plus a few fixed bumps, giving each class a distinctive
// signature.
func classBase(rng *rand.Rand, spiky bool) func(float64) float64 {
	sf := shape.Superformula{
		M:  float64(2 + rng.Intn(9)),
		N1: 1.5 + 4*rng.Float64(),
		N2: 2 + 10*rng.Float64(),
		N3: 2 + 10*rng.Float64(),
		A:  1,
		B:  1,
	}
	if spiky {
		sf.N1 = 0.6 + 0.8*rng.Float64()
		sf.N2 = 6 + 14*rng.Float64()
		sf.N3 = sf.N2
	}
	// Fixed feature bumps (brow ridge / tang / fin analogues).
	type bump struct{ at, w, amp float64 }
	bumps := make([]bump, 1+rng.Intn(3))
	for i := range bumps {
		bumps[i] = bump{
			at:  rng.Float64() * 2 * math.Pi,
			w:   0.2 + 0.5*rng.Float64(),
			amp: 0.08 + 0.25*rng.Float64(),
		}
	}
	return func(theta float64) float64 {
		r := sf.Radius(theta)
		// Normalize the superformula's scale so bumps are comparable.
		for _, b := range bumps {
			d := theta - b.at
			for d > math.Pi {
				d -= 2 * math.Pi
			}
			for d < -math.Pi {
				d += 2 * math.Pi
			}
			if x := d / b.w; x > -1 && x < 1 {
				r *= 1 + b.amp*(1+math.Cos(math.Pi*x))/2
			}
		}
		return r
	}
}

// InstanceConfig tunes how much within-class variation instances get.
type InstanceConfig struct {
	Noise        float64 // multiplicative contour ripple amplitude
	Articulation float64 // max angular feature slide (radians)
	OcclusionP   float64 // probability of a missing part
	Rotate       bool    // random circular rotation (always true in practice)
	MirrorP      float64 // probability an instance is mirrored
}

// DefaultInstanceConfig gives moderate within-class variation.
func DefaultInstanceConfig() InstanceConfig {
	return InstanceConfig{Noise: 0.03, Articulation: 0.12, Rotate: true}
}

// instance renders one series from the class base contour.
func instance(rng *rand.Rand, base func(float64) float64, n int, cfg InstanceConfig) []float64 {
	rs := shape.NewRadialShape(base)
	if cfg.Articulation > 0 {
		at := rng.Float64() * 2 * math.Pi
		rs = rs.WithArticulation(at, 0.4+0.4*rng.Float64(), cfg.Articulation*(2*rng.Float64()-1))
	}
	if cfg.Noise > 0 {
		rs = rs.WithNoise(rng, cfg.Noise)
	}
	if cfg.OcclusionP > 0 && rng.Float64() < cfg.OcclusionP {
		rs = rs.WithOcclusion(rng.Float64()*2*math.Pi, 0.2+0.3*rng.Float64(), 0.6)
	}
	sig := shape.RadialSignature(rs.Radius, n)
	if cfg.MirrorP > 0 && rng.Float64() < cfg.MirrorP {
		sig = ts.Mirror(sig)
	}
	if cfg.Rotate {
		sig = ts.Rotate(sig, rng.Intn(n))
	}
	return ts.ZNorm(sig)
}

// Dataset is a labelled collection of equal-length series, as produced by
// the synthetic generators that reproduce the paper's evaluation workloads.
type Dataset struct {
	// Name identifies the dataset.
	Name string
	// Series holds the instances (all of length N).
	Series [][]float64
	// Labels holds the class label of each instance.
	Labels []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// N is the series length.
	N int
}

// MakeClassDataset builds `classes` classes with `perClass` instances each,
// of length n. Spiky selects projectile-point-like pointed contours.
func MakeClassDataset(name string, seed int64, classes, perClass, n int, spiky bool, cfg InstanceConfig) *Dataset {
	if classes < 1 || perClass < 1 || n < 4 {
		panic(fmt.Sprintf("synth: invalid dataset spec %d/%d/%d", classes, perClass, n))
	}
	baseRng := ts.NewRand(seed)
	bases := make([]func(float64) float64, classes)
	for c := range bases {
		bases[c] = classBase(ts.NewRand(baseRng.Int63()), spiky)
	}
	d := &Dataset{Name: name, NumClasses: classes, N: n}
	inst := ts.NewRand(seed + 1)
	for i := 0; i < classes*perClass; i++ {
		c := i % classes
		d.Series = append(d.Series, instance(inst, bases[c], n, cfg))
		d.Labels = append(d.Labels, c)
	}
	return d
}

// ProjectilePoints generates the homogeneous projectile-point workload of
// Figures 19–20: m spiky contour signatures of length n (251 in the paper)
// drawn from a moderate number of point "types", at arbitrary rotation.
func ProjectilePoints(seed int64, m, n int) [][]float64 {
	classes := 40
	if m < classes {
		classes = m
	}
	per := (m + classes - 1) / classes
	cfg := DefaultInstanceConfig()
	cfg.OcclusionP = 0.15 // broken tips and tangs (Figure 15)
	d := MakeClassDataset("projectile-points", seed, classes, per, n, true, cfg)
	return d.Series[:m]
}

// MakeSiblingDataset builds classes that are perturbations of one shared
// parent contour — deliberately confusable, like the paper's Yoga dataset
// (two visually similar pose silhouettes). spread sets the per-class
// perturbation amplitude: smaller spread, harder problem.
func MakeSiblingDataset(name string, seed int64, classes, perClass, n int, spread float64, cfg InstanceConfig) *Dataset {
	if classes < 1 || perClass < 1 || n < 4 {
		panic(fmt.Sprintf("synth: invalid dataset spec %d/%d/%d", classes, perClass, n))
	}
	rng := ts.NewRand(seed)
	parent := classBase(rng, false)
	bases := make([]func(float64) float64, classes)
	for c := range bases {
		order := 2 + c%5
		phase := rng.Float64() * 2 * math.Pi
		amp := spread
		bases[c] = func(theta float64) float64 {
			return parent(theta) * (1 + amp*math.Sin(float64(order)*theta+phase))
		}
	}
	d := &Dataset{Name: name, NumClasses: classes, N: n}
	inst := ts.NewRand(seed + 1)
	for i := 0; i < classes*perClass; i++ {
		c := i % classes
		d.Series = append(d.Series, instance(inst, bases[c], n, cfg))
		d.Labels = append(d.Labels, c)
	}
	return d
}

// RasterMixedBag renders a small MixedBag-style collection as binary rasters
// (size×size), each instance rotated by a random image-space angle — the
// input the image-space baselines (Chamfer, Hausdorff) and the full
// bitmap→signature pipeline both consume. Labels identify the class.
func RasterMixedBag(seed int64, classes, perClass, size int) ([]*shape.Bitmap, []int) {
	baseRng := ts.NewRand(seed)
	bases := make([]func(float64) float64, classes)
	for c := range bases {
		// Rounded contours only: the paper's MixedBag contains solid real
		// objects. Needle-thin spiky arms degenerate to 1-2 pixel strokes at
		// raster scale, where boundary topology itself changes with
		// orientation and no contour method is rotation-covariant.
		bases[c] = classBase(ts.NewRand(baseRng.Int63()), false)
	}
	// Compress each base's radial dynamic range into [0.45, 1]: the shape
	// then always contains a fat disk, so its boundary stays a single thick
	// closed curve at any raster orientation.
	for c := range bases {
		base := bases[c]
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 720; i++ {
			r := base(2 * math.Pi * float64(i) / 720)
			lo = math.Min(lo, r)
			hi = math.Max(hi, r)
		}
		span := hi - lo
		if span < 1e-9 {
			span = 1
		}
		bases[c] = func(theta float64) float64 {
			return 0.45 + 0.55*(base(theta)-lo)/span
		}
	}
	inst := ts.NewRand(seed + 1)
	var bitmaps []*shape.Bitmap
	var labels []int
	for i := 0; i < classes*perClass; i++ {
		c := i % classes
		rs := shape.NewRadialShape(bases[c]).WithNoise(inst, 0.02)
		bmp := shape.FromRadial(rs.Radius, size)
		angle := inst.Float64() * 2 * math.Pi
		bitmaps = append(bitmaps, bmp.Rotate(angle))
		labels = append(labels, c)
	}
	return bitmaps, labels
}

// Heterogeneous generates the mixed workload of Figure 21: instances drawn
// from many dissimilar families, length n (1024 in the paper).
func Heterogeneous(seed int64, m, n int) [][]float64 {
	families := 60
	if m < families {
		families = m
	}
	per := (m + families - 1) / families
	cfg := DefaultInstanceConfig()
	cfg.Noise = 0.05
	cfg.MirrorP = 0.2
	d := MakeClassDataset("heterogeneous", seed, families, per, n, false, cfg)
	// Interleave spiky shapes for extra diversity.
	spikyCfg := DefaultInstanceConfig()
	spiky := MakeClassDataset("heterogeneous-spiky", seed+7, families/2+1, per, n, true, spikyCfg)
	out := make([][]float64, 0, m)
	for i := 0; len(out) < m; i++ {
		if i%3 == 2 {
			out = append(out, spiky.Series[i%len(spiky.Series)])
		} else {
			out = append(out, d.Series[i%len(d.Series)])
		}
	}
	return out
}
