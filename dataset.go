package lbkeogh

import (
	"fmt"
	"sort"

	"lbkeogh/internal/lightcurve"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
)

// Dataset is a labelled collection of equal-length series, as produced by
// the synthetic generators that reproduce the paper's evaluation workloads:
// Name, Series (all of length N), Labels (each instance's class) and
// NumClasses.
type Dataset = synth.Dataset

// SyntheticProjectilePoints generates the homogeneous projectile-point
// workload of the paper's Figures 19–20: m spiky contour signatures of
// length n at arbitrary rotation (the paper uses m up to 16,000, n = 251).
func SyntheticProjectilePoints(seed int64, m, n int) []Series {
	return synth.ProjectilePoints(seed, m, n)
}

// SyntheticHeterogeneous generates the mixed-shape workload of Figure 21
// (the paper uses 5,844 objects of length 1,024).
func SyntheticHeterogeneous(seed int64, m, n int) []Series {
	return synth.Heterogeneous(seed, m, n)
}

// SyntheticLightCurves generates m folded, noisy star light curves of
// length n drawn evenly from three morphological families (eclipsing
// binaries, Cepheid-like and RR-Lyrae-like pulsators); labels identify the
// family. See Section 2.4 of the paper.
func SyntheticLightCurves(seed int64, m, n int, noise float64) *Dataset {
	series, labels := lightcurve.Dataset(seed, m, n, noise)
	return &Dataset{
		Name:       "light-curves",
		Series:     series,
		Labels:     labels,
		NumClasses: lightcurve.NumClasses,
		N:          n,
	}
}

// Table8Names lists the ten classification datasets of the paper's Table 8
// in row order.
func Table8Names() []string { return synth.Table8Names() }

// Table8Dataset instantiates a synthetic stand-in for one of the paper's
// Table 8 datasets (same class count, scaled instance count). sizeScale
// multiplies the default per-class instance count; pass 1 for defaults.
func Table8Dataset(name string, sizeScale float64) (*Dataset, error) {
	return synth.Table8Dataset(name, sizeScale)
}

// Glyphs returns signatures of the demo glyphs 'b', 'd', 'p', 'q', '6', '9'
// rendered through the full raster pipeline at signature length n.
func Glyphs(n int) (map[byte]Series, error) { return synth.Glyphs(n) }

// SkullDataset generates the procedural primate-skull collection used by
// the clustering demos (Figures 3 and 16 of the paper): instances per named
// species, at random rotations, with smooth contour noise. Labels index the
// sorted species names returned as the second value.
func SkullDataset(seed int64, perSpecies, n int, noise float64) (*Dataset, []string) {
	if perSpecies < 1 {
		panic(fmt.Sprintf("lbkeogh: perSpecies must be >= 1, got %d", perSpecies))
	}
	species := synth.SkullSpecies()
	names := make([]string, 0, len(species))
	for name := range species {
		names = append(names, name)
	}
	sort.Strings(names) // for determinism
	rng := ts.NewRand(seed)
	d := &Dataset{Name: "skulls", NumClasses: len(names), N: n}
	for li, name := range names {
		for k := 0; k < perSpecies; k++ {
			d.Series = append(d.Series, synth.SkullSignature(rng, species[name], n, noise))
			d.Labels = append(d.Labels, li)
		}
	}
	return d, names
}
