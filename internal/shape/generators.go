package shape

import (
	"math"
	"math/rand"
)

// Superformula is the Gielis superformula, a compact generator of organic,
// closed, star-convex-ish contours — our stand-in for the paper's insect,
// leaf and skull photographs (see DESIGN.md, substitutions).
//
//	r(θ) = ( |cos(mθ/4)/a|^n2 + |sin(mθ/4)/b|^n3 )^(-1/n1)
type Superformula struct {
	M, N1, N2, N3 float64
	A, B          float64
}

// Radius evaluates the superformula at angle theta, guarding against the
// degenerate zero denominator.
func (s Superformula) Radius(theta float64) float64 {
	a, b := s.A, s.B
	if a == 0 {
		a = 1
	}
	if b == 0 {
		b = 1
	}
	t1 := math.Pow(math.Abs(math.Cos(s.M*theta/4)/a), s.N2)
	t2 := math.Pow(math.Abs(math.Sin(s.M*theta/4)/b), s.N3)
	sum := t1 + t2
	if sum <= 0 {
		return 1
	}
	return math.Pow(sum, -1/s.N1)
}

// RadialShape is a radius function with composable distortions, used to
// build within-class variation: noise, articulation (local angular bending,
// Figure 18), occlusion (missing parts, Figures 14–15) and harmonics.
type RadialShape struct {
	Base func(theta float64) float64
	mods []func(theta, r float64) (float64, float64)
}

// NewRadialShape wraps a base radius function.
func NewRadialShape(base func(theta float64) float64) *RadialShape {
	return &RadialShape{Base: base}
}

// Radius evaluates the distorted shape at theta.
func (rs *RadialShape) Radius(theta float64) float64 {
	theta = math.Mod(theta, 2*math.Pi)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	r := rs.Base(theta)
	for _, m := range rs.mods {
		theta, r = m(theta, r)
		r = math.Max(r, 1e-3)
	}
	return r
}

// WithArticulation bends the region around angle at by locally warping the
// angular coordinate — the "tweaked hindwing" of Figure 18: features move
// along the contour without appearing or vanishing.
func (rs *RadialShape) WithArticulation(at, width, strength float64) *RadialShape {
	rs.mods = append(rs.mods, func(theta, r float64) (float64, float64) {
		d := angularDiff(theta, at)
		if math.Abs(d) < width {
			w := math.Cos(d / width * math.Pi / 2)
			shifted := theta + strength*w*w
			return shifted, rs.Base(math.Mod(shifted+2*math.Pi, 2*math.Pi))
		}
		return theta, r
	})
	return rs
}

// WithOcclusion flattens the radius over an angular window — a broken tip or
// missing part (the Skhul V nose region, projectile-point tangs).
func (rs *RadialShape) WithOcclusion(at, width, level float64) *RadialShape {
	rs.mods = append(rs.mods, func(theta, r float64) (float64, float64) {
		if math.Abs(angularDiff(theta, at)) < width {
			return theta, math.Min(r, level)
		}
		return theta, r
	})
	return rs
}

// WithNoise multiplies the radius by smooth pseudo-random ripple derived
// from rng (fixed per instance, not per evaluation).
func (rs *RadialShape) WithNoise(rng *rand.Rand, amp float64) *RadialShape {
	// A small random Fourier series keeps the contour smooth and the
	// signature well defined at any sampling density.
	const terms = 6
	amps := make([]float64, terms)
	phases := make([]float64, terms)
	for i := range amps {
		amps[i] = amp * rng.NormFloat64() / terms
		phases[i] = rng.Float64() * 2 * math.Pi
	}
	rs.mods = append(rs.mods, func(theta, r float64) (float64, float64) {
		var p float64
		for i := 0; i < terms; i++ {
			p += amps[i] * math.Sin(float64(i+2)*theta+phases[i])
		}
		return theta, r * (1 + p)
	})
	return rs
}

func angularDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Letter rasterizes a blocky lowercase letterform used by the paper's
// motivating examples: "b" and "d" (mirror pair), "p" and "q" (their flips),
// plus "6" and "9" (rotation pair) for rotation-limited queries. The shapes
// are deliberately simple: a stem plus a bowl, with the bowl's position
// determining which glyph it is.
func Letter(ch byte, size int) *Bitmap {
	b := NewBitmap(size, size)
	s := float64(size)
	stemW := s * 0.16
	bowlR := s * 0.28
	switch ch {
	case 'b':
		b.FillRect(s*0.18, s*0.08, s*0.18+stemW, s*0.92)
		b.FillDisk(s*0.5, s*0.64, bowlR)
	case 'd':
		b.FillRect(s*0.82-stemW, s*0.08, s*0.82, s*0.92)
		b.FillDisk(s*0.5, s*0.64, bowlR)
	case 'p':
		b.FillRect(s*0.18, s*0.08, s*0.18+stemW, s*0.92)
		b.FillDisk(s*0.5, s*0.36, bowlR)
	case 'q':
		b.FillRect(s*0.82-stemW, s*0.08, s*0.82, s*0.92)
		b.FillDisk(s*0.5, s*0.36, bowlR)
	case '6':
		b.FillDisk(s*0.5, s*0.66, bowlR)
		b.FillPolygon([][2]float64{
			{s * 0.44, s * 0.66}, {s * 0.72, s * 0.10},
			{s * 0.84, s * 0.16}, {s * 0.58, s * 0.70},
		})
	case '9':
		b.FillDisk(s*0.5, s*0.34, bowlR)
		b.FillPolygon([][2]float64{
			{s * 0.56, s * 0.34}, {s * 0.28, s * 0.90},
			{s * 0.16, s * 0.84}, {s * 0.42, s * 0.30},
		})
	default:
		panic("shape: unsupported letter " + string(ch))
	}
	return b
}
