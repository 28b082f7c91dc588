// Package shape implements the 2-D substrate of the paper: binary raster
// shapes, Moore-neighbour boundary tracing, and the conversion of a closed
// contour into a 1-D centroid-distance time series (Figure 2: "the distance
// from every point on the profile to the center is measured and treated as
// the Y-axis of a time series of length n").
//
// Rotating the 2-D shape circularly shifts the signature; mirroring the
// shape reverses it — the two facts that reduce rotation-invariant and
// enantiomorphic shape matching to circular-shift matching of series.
package shape

import (
	"fmt"
	"math"
)

// Bitmap is a binary raster image.
type Bitmap struct {
	W, H int
	pix  []bool
}

// NewBitmap returns an all-background bitmap of the given size.
func NewBitmap(w, h int) *Bitmap {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("shape: invalid bitmap size %dx%d", w, h))
	}
	return &Bitmap{W: w, H: h, pix: make([]bool, w*h)}
}

// Get reports the pixel at (x, y); out-of-range coordinates are background.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.pix[y*b.W+x]
}

// Set assigns the pixel at (x, y); out-of-range coordinates are ignored.
func (b *Bitmap) Set(x, y int, v bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	b.pix[y*b.W+x] = v
}

// Count returns the number of foreground pixels.
func (b *Bitmap) Count() int {
	n := 0
	for _, v := range b.pix {
		if v {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := NewBitmap(b.W, b.H)
	copy(out.pix, b.pix)
	return out
}

// FillDisk sets all pixels within radius r of (cx, cy).
func (b *Bitmap) FillDisk(cx, cy, r float64) {
	x0, x1 := int(cx-r)-1, int(cx+r)+1
	y0, y1 := int(cy-r)-1, int(cy+r)+1
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if dx*dx+dy*dy <= r*r {
				b.Set(x, y, true)
			}
		}
	}
}

// FillRect sets the axis-aligned rectangle [x0,x1]×[y0,y1].
func (b *Bitmap) FillRect(x0, y0, x1, y1 float64) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	for y := int(y0); y <= int(y1); y++ {
		for x := int(x0); x <= int(x1); x++ {
			b.Set(x, y, true)
		}
	}
}

// FillPolygon rasterizes a simple polygon with the even-odd scanline rule.
func (b *Bitmap) FillPolygon(pts [][2]float64) {
	if len(pts) < 3 {
		return
	}
	for y := 0; y < b.H; y++ {
		fy := float64(y) + 0.5
		var xs []float64
		for i := range pts {
			p1 := pts[i]
			p2 := pts[(i+1)%len(pts)]
			y1, y2 := p1[1], p2[1]
			if (y1 <= fy && y2 > fy) || (y2 <= fy && y1 > fy) {
				t := (fy - y1) / (y2 - y1)
				xs = append(xs, p1[0]+t*(p2[0]-p1[0]))
			}
		}
		if len(xs) < 2 {
			continue
		}
		// Insertion sort (crossing lists are tiny).
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		for i := 0; i+1 < len(xs); i += 2 {
			for x := int(math.Ceil(xs[i] - 0.5)); float64(x)+0.5 <= xs[i+1]; x++ {
				b.Set(x, y, true)
			}
		}
	}
}

// Rotate returns the bitmap rotated by the given angle (radians, counter-
// clockwise) about its centre, using inverse nearest-neighbour sampling into
// a canvas of the same size.
func (b *Bitmap) Rotate(angle float64) *Bitmap {
	out := NewBitmap(b.W, b.H)
	cx, cy := float64(b.W)/2, float64(b.H)/2
	sin, cos := math.Sin(-angle), math.Cos(-angle)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			dx, dy := float64(x)+0.5-cx, float64(y)+0.5-cy
			sx := cx + dx*cos - dy*sin
			sy := cy + dx*sin + dy*cos
			if b.Get(int(sx), int(sy)) {
				out.Set(x, y, true)
			}
		}
	}
	return out
}

// Centroid returns the area centroid of the foreground, or an error for an
// empty bitmap.
func (b *Bitmap) Centroid() (cx, cy float64, err error) {
	var sx, sy, n float64
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				sx += float64(x)
				sy += float64(y)
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("shape: empty bitmap has no centroid")
	}
	return sx / n, sy / n, nil
}

// String renders the bitmap as ASCII art (for debugging and the examples).
func (b *Bitmap) String() string {
	out := make([]byte, 0, (b.W+1)*b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				out = append(out, '#')
			} else {
				out = append(out, '.')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
