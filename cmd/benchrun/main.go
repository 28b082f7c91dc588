// Command benchrun regenerates the paper's evaluation figures and tables on
// the synthetic workloads (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	benchrun -fig 19                 # Figure 19 (projectile points, Euclidean)
//	benchrun -fig 20 -maxm 16000     # Figure 20 at the paper's full size
//	benchrun -fig 24                 # Figure 24 (disk accesses)
//	benchrun -fig table8             # Table 8 (classification error)
//	benchrun -fig exponent           # the O(n^1.06) empirical-complexity fit
//	benchrun -fig all                # everything at the default scale
//
// Each figure prints the same series the paper plots: the ratio of
// num_steps per comparison against brute force (figures 19–23), the
// fraction of objects fetched from disk (figure 24), or leave-one-out error
// rates (table 8). Paper-scale runs are available via -maxm/-n/-queries but
// take correspondingly longer; the defaults reproduce the curve shapes in
// seconds to minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"lbkeogh/internal/experiments"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/synth"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which experiment: 19|20|21|22|23|24|table8|exponent|landmark|mixedbag|sampling|occlusion|chaincode|probes|all")
		maxM     = flag.Int("maxm", 2000, "largest database size for the efficiency sweeps")
		queries  = flag.Int("queries", 5, "queries to average per point (paper: 50)")
		nProj    = flag.Int("n", 251, "series length for projectile points (paper: 251)")
		nHet     = flag.Int("nhet", 256, "series length for the heterogeneous dataset (paper: 1024)")
		nLC      = flag.Int("nlc", 256, "series length for light curves")
		scale    = flag.Float64("scale", 1.0, "table 8 per-class instance-count multiplier")
		rBand    = flag.Int("r", 5, "Sakoe-Chiba radius for DTW figures")
		seed     = flag.Int64("seed", 2006, "base RNG seed")
		format   = flag.String("format", "table", "output format for figure series: table | csv")
		logLevel = flag.String("log-level", "info", "stderr diagnostic log level: debug, info, warn, error")
	)
	flag.Parse()
	outputFormat = *format
	// Result tables go to stdout; diagnostics go to stderr as structured
	// text log lines, so scripted callers can separate the two streams.
	diag := ops.NewLogger(os.Stderr, "text", *logLevel)

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		fmt.Printf("==> %s\n", title(name))
		if err := fn(); err != nil {
			diag.Error("experiment failed", "fig", name, "error", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("19", func() error {
		return efficiency(experiments.EfficiencyConfig{
			Workload: experiments.ProjectilePoints, Sizes: experiments.GeometricSizes(*maxM),
			N: *nProj, Queries: *queries, Seed: *seed,
		})
	})
	run("20", func() error {
		return efficiency(experiments.EfficiencyConfig{
			Workload: experiments.ProjectilePoints, UseDTW: true, R: *rBand,
			Sizes: experiments.GeometricSizes(*maxM), N: *nProj, Queries: *queries, Seed: *seed,
		})
	})
	run("21", func() error {
		if err := efficiency(experiments.EfficiencyConfig{
			Workload: experiments.Heterogeneous, Sizes: experiments.GeometricSizes(min(*maxM, 8000)),
			N: *nHet, Queries: *queries, Seed: *seed + 1,
		}); err != nil {
			return err
		}
		fmt.Println("   (DTW panel)")
		return efficiency(experiments.EfficiencyConfig{
			Workload: experiments.Heterogeneous, UseDTW: true, R: *rBand,
			Sizes: experiments.GeometricSizes(min(*maxM, 8000)), N: *nHet, Queries: *queries, Seed: *seed + 1,
		})
	})
	run("22", func() error {
		return efficiency(experiments.EfficiencyConfig{
			Workload: experiments.LightCurves, Sizes: experiments.GeometricSizes(min(*maxM, 953)),
			N: *nLC, Queries: *queries, Seed: *seed + 2,
		})
	})
	run("23", func() error {
		return efficiency(experiments.EfficiencyConfig{
			Workload: experiments.LightCurves, UseDTW: true, R: *rBand,
			Sizes: experiments.GeometricSizes(min(*maxM, 953)), N: *nLC, Queries: *queries, Seed: *seed + 2,
		})
	})
	run("24", func() error {
		for _, w := range []experiments.Workload{experiments.ProjectilePoints, experiments.Heterogeneous} {
			fmt.Printf("   dataset: %s\n", w)
			n := *nProj
			if w == experiments.Heterogeneous {
				n = *nHet
			}
			curves, err := experiments.DiskAccesses(experiments.DiskConfig{
				Workload: w, Dims: []int{4, 8, 16, 32},
				M: min(*maxM, 2000), N: n, R: *rBand, Queries: *queries, Seed: *seed + 3,
			})
			if err != nil {
				return err
			}
			tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintf(tw, "   D\t%s\t%s\n", curves[0].Label, curves[1].Label)
			for i, d := range curves[0].Dims {
				fmt.Fprintf(tw, "   %d\t%.4f\t%.4f\n", d, curves[0].Fraction[i], curves[1].Fraction[i])
			}
			tw.Flush()
		}
		return nil
	})
	run("table8", func() error {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "   dataset\tclasses\tm (paper m)\tED err%\tDTW err% {R}\tpaper ED\tpaper DTW {R}")
		for _, name := range synth.Table8Names() {
			row, err := experiments.Table8(name, *scale)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "   %s\t%d\t%d (%d)\t%.2f\t%.2f {%d}\t%.2f\t%.2f {%d}\n",
				row.Name, row.Classes, row.Instances, row.PaperSize,
				row.EuclideanErr, row.DTWErr, row.BestR,
				row.PaperEuclErr, row.PaperDTWErr, row.PaperR)
		}
		tw.Flush()
		return nil
	})
	run("landmark", func() error {
		res, err := experiments.LandmarkVsRotation("Yoga", *scale, 2)
		if err != nil {
			return err
		}
		fmt.Printf("   %s: landmark ED %.2f%% / DTW %.2f%%   rotation-invariant ED %.2f%% / DTW %.2f%%\n",
			res.Dataset, res.LandmarkED, res.LandmarkDTW, res.RotInvED, res.RotInvDTW)
		fmt.Println("   (paper, human-annotated landmarks: 17.0 / 15.5 vs 4.70 / 4.85)")
		return nil
	})
	run("mixedbag", func() error {
		res, err := experiments.ImageSpaceBaselines(*seed+5, 9, 4, 64, 24, 128)
		if err != nil {
			return err
		}
		fmt.Printf("   %d rasters: Chamfer %.2f%%   Hausdorff %.2f%%   signature+RED %.2f%%\n",
			res.Instances, res.ChamferErr, res.HausdorffErr, res.SignatureEuclideanErr)
		fmt.Println("   (paper on MixedBag: Chamfer 6.0, Hausdorff 7.0, Euclidean 4.375)")
		return nil
	})
	run("sampling", func() error {
		res, err := experiments.SamplingAblation("Fish", *scale, 40)
		if err != nil {
			return err
		}
		fmt.Printf("   %s: full n=%d error %.2f%%   sampled to %d points error %.2f%%\n",
			res.Dataset, res.FullLen, res.FullErr, res.SampledLen, res.SampledErr)
		fmt.Println("   (paper: 40-point sampling 36.0% error vs raw-signature 11.43%)")
		return nil
	})
	run("occlusion", func() error {
		res, err := experiments.OcclusionRobustness(*seed+6, 6, 10, 128, 0.5, 4, 0.5)
		if err != nil {
			return err
		}
		fmt.Printf("   50%% occluded instances: ED %.2f%%   DTW %.2f%%   LCSS %.2f%%\n",
			res.EDErr, res.DTWErr, res.LCSSErr)
		return nil
	})
	run("chaincode", func() error {
		res, err := experiments.ChainCodeBaseline(*seed+8, 6, 4, 64, 128)
		if err != nil {
			return err
		}
		fmt.Printf("   %d rasters: chain-code error %.2f%%   signature+RED error %.2f%%\n",
			res.Instances, res.ChainCodeErr, res.SignatureErr)
		fmt.Printf("   cost/comparison: chain codes (n²·log n model) %.0f   wedge (measured) %.0f   -> %.0fx\n",
			res.ChainCodeSteps, res.SignatureSteps, res.SpeedupOverChains)
		fmt.Println("   (paper §2.3: \"we are thousands of times faster while also able to avoid discretization errors\")")
		return nil
	})
	run("probes", func() error {
		res, err := experiments.ProbeIntervalSensitivity(*seed+7, min(*maxM, 1000), *nProj, *queries,
			[]int{3, 5, 10, 20})
		if err != nil {
			return err
		}
		for i, iv := range res.Intervals {
			fmt.Printf("   intervals=%d: %.1f steps/comparison\n", iv, res.Steps[i])
		}
		fmt.Printf("   max spread %.1f%% (paper: within 4%% across 3..20)\n", 100*res.MaxSpread)
		return nil
	})
	run("exponent", func() error {
		res, err := experiments.EmpiricalExponent(experiments.ExponentConfig{
			Lengths: []int{32, 64, 128, 256, 512},
			M:       min(*maxM, 2000),
			Queries: *queries,
			Seed:    *seed + 4,
		})
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "   n\tsteps/comparison")
		for i, n := range res.Lengths {
			fmt.Fprintf(tw, "   %d\t%.1f\n", n, res.Steps[i])
		}
		tw.Flush()
		fmt.Printf("   fitted: steps ≈ %.2f · n^%.3f   (paper: O(n^1.06); brute force is n^2)\n",
			res.Coeff, res.Exponent)
		return nil
	})

	if !ran(*fig) {
		diag.Error("unknown -fig (want 19|20|21|22|23|24|table8|exponent|all)", "fig", *fig)
		os.Exit(2)
	}
}

func ran(fig string) bool {
	switch fig {
	case "all", "19", "20", "21", "22", "23", "24", "table8", "exponent",
		"landmark", "mixedbag", "sampling", "occlusion", "chaincode", "probes":
		return true
	}
	return false
}

func title(name string) string {
	switch name {
	case "19":
		return "Figure 19 — projectile points, Euclidean (steps ratio vs brute force)"
	case "20":
		return "Figure 20 — projectile points, DTW"
	case "21":
		return "Figure 21 — heterogeneous dataset, Euclidean then DTW"
	case "22":
		return "Figure 22 — star light curves, Euclidean"
	case "23":
		return "Figure 23 — star light curves, DTW"
	case "24":
		return "Figure 24 — fraction of objects fetched from disk vs dimensionality"
	case "table8":
		return "Table 8 — 1-NN leave-one-out error, ED vs DTW"
	case "exponent":
		return "Empirical complexity — wedge steps/comparison vs n"
	case "landmark":
		return "Section 5.1 — landmark alignment vs rotation invariance (Yoga)"
	case "mixedbag":
		return "Section 5.1 — image-space baselines (Chamfer/Hausdorff) vs signature"
	case "sampling":
		return "Sections 2.3/5.1 — contour sampling vs full-resolution signature"
	case "occlusion":
		return "Figures 14–15 — occlusion robustness (ED vs DTW vs LCSS)"
	case "chaincode":
		return "Section 2.3 — chain-code cyclic matching [23] vs wedge signatures"
	case "probes":
		return "Section 5.3 — dynamic-K probe-interval sensitivity"
	default:
		return name
	}
}

var outputFormat = "table"

func efficiency(cfg experiments.EfficiencyConfig) error {
	curves, err := experiments.Efficiency(cfg)
	if err != nil {
		return err
	}
	if outputFormat == "csv" {
		header := []string{"m"}
		for _, c := range curves {
			header = append(header, c.Label)
		}
		fmt.Println(strings.Join(header, ","))
		for i, m := range cfg.Sizes {
			row := []string{fmt.Sprint(m)}
			for _, c := range curves {
				row = append(row, fmt.Sprintf("%.6g", c.Ratio[i]))
			}
			fmt.Println(strings.Join(row, ","))
		}
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := []string{"   m"}
	for _, c := range curves {
		header = append(header, c.Label)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i, m := range cfg.Sizes {
		row := []string{fmt.Sprintf("   %d", m)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.5f", c.Ratio[i]))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Printf("   wedge speedup over brute force at m=%d: %.0fx\n",
		cfg.Sizes[len(cfg.Sizes)-1], experiments.SpeedupAtLargestM(curves))
	return nil
}
