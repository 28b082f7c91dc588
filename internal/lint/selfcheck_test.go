package lint

import "testing"

// TestRepositoryIsClean runs the production analyzer suite over the whole
// module — exactly what `make lint` / cmd/lbkeoghvet do — and requires zero
// findings. This puts lint cleanliness inside the ordinary test gate: a
// change that lets a Tally escape, compares floats with == in a bound's
// package, allocates in a hot path, polls ctx.Err() per iteration of one, or
// breaks a lower bound's composition fails `go test ./...`, not just CI's
// lint step.
func TestRepositoryIsClean(t *testing.T) {
	l := moduleLoader(t)
	pkgs, err := l.Packages()
	if err != nil {
		t.Fatalf("type-checking module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is not seeing the module", len(pkgs))
	}
	diags := Run(pkgs, DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
