// Package expofmt parses the Prometheus text exposition format (0.0.4) with
// OpenMetrics exemplar suffixes — the exact dialect every /metrics surface in
// this repository emits. Tests scrape the library's and the server's /metrics
// through it to pin the exemplar round-trip and to reconcile cumulative
// counters against what a client saw. The parser is deliberately strict:
// every sample's family must be preceded by its # HELP and # TYPE lines,
// sample lines must be `name[{labels}] value`, and exemplars must be
// `# {labels} value [timestamp]` — a malformed exposition is an error, never
// a silent skip, because a scrape that parses loosely cannot be trusted to
// verify anything.
package expofmt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed sample line. Exemplar holds the OpenMetrics exemplar
// labels (e.g. trace_id) when the line carries a `# {labels} value
// [timestamp]` suffix, nil otherwise.
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar map[string]string
}

// Exposition is one fully parsed scrape: the samples in emission order plus
// the per-family TYPE and HELP metadata.
type Exposition struct {
	Samples []Sample
	Types   map[string]string
	Help    map[string]string
}

// Parse reads one exposition body, enforcing the format contract described
// in the package comment. Errors carry the 1-based line number.
func Parse(body string) (*Exposition, error) {
	e := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	seen := map[string]bool{}
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && e.Types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				return nil, fmt.Errorf("expofmt: line %d: HELP without text: %q", ln+1, line)
			}
			e.Help[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				return nil, fmt.Errorf("expofmt: line %d: malformed TYPE: %q", ln+1, line)
			}
			e.Types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// An OpenMetrics exemplar rides after the sample value as
		// ` # {labels} value [timestamp]`; split it off before the value parse
		// below (whose LastIndex would otherwise grab the exemplar's trailing
		// timestamp).
		var exemplar map[string]string
		if i := strings.Index(line, " # {"); i >= 0 {
			ex := line[i+len(" # "):]
			end := strings.Index(ex, "}")
			if end < 0 {
				return nil, fmt.Errorf("expofmt: line %d: unterminated exemplar labels: %q", ln+1, line)
			}
			var err error
			if exemplar, err = parseLabels(ex[1:end]); err != nil {
				return nil, fmt.Errorf("expofmt: line %d: exemplar %v", ln+1, err)
			}
			fields := strings.Fields(ex[end+1:])
			if len(fields) < 1 || len(fields) > 2 {
				return nil, fmt.Errorf("expofmt: line %d: exemplar wants `value [timestamp]`, got %q", ln+1, ex[end+1:])
			}
			for _, f := range fields {
				if _, err := strconv.ParseFloat(f, 64); err != nil {
					return nil, fmt.Errorf("expofmt: line %d: bad exemplar number %q: %v", ln+1, f, err)
				}
			}
			line = strings.TrimSpace(line[:i])
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			return nil, fmt.Errorf("expofmt: line %d: malformed sample: %q", ln+1, line)
		}
		nameLabels, valStr := line[:sp], line[sp+1:]
		val, err := parseValue(valStr)
		if err != nil {
			return nil, fmt.Errorf("expofmt: line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		s := Sample{Labels: map[string]string{}, Value: val, Exemplar: exemplar}
		if i := strings.Index(nameLabels, "{"); i >= 0 {
			s.Name = nameLabels[:i]
			if s.Labels, err = parseLabels(strings.TrimSuffix(nameLabels[i+1:], "}")); err != nil {
				return nil, fmt.Errorf("expofmt: line %d: %v", ln+1, err)
			}
		} else {
			s.Name = nameLabels
		}
		fam := family(s.Name)
		if !seen[fam] {
			if e.Help[fam] == "" {
				return nil, fmt.Errorf("expofmt: line %d: sample for %s before its # HELP", ln+1, fam)
			}
			if e.Types[fam] == "" {
				return nil, fmt.Errorf("expofmt: line %d: sample for %s before its # TYPE", ln+1, fam)
			}
			seen[fam] = true
		}
		e.Samples = append(e.Samples, s)
	}
	return e, nil
}

// parseValue accepts the sample-value forms the exposition format allows,
// including +Inf/-Inf/NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses the inside of a {...} label set.
func parseLabels(inner string) (map[string]string, error) {
	out := map[string]string{}
	for _, pair := range strings.Split(inner, ",") {
		if pair == "" {
			continue
		}
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed label %q", pair)
		}
		out[kv[0]] = strings.Trim(kv[1], `"`)
	}
	return out, nil
}

// Find returns every sample of the named family (exact name match), in
// emission order.
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// matches reports whether the sample carries every label in want (a subset
// match: extra labels on the sample are fine).
func (s Sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the value of the first sample named name whose labels
// contain every pair in labels (nil matches any). ok is false when no sample
// matches.
func (e *Exposition) Value(name string, labels map[string]string) (v float64, ok bool) {
	for _, s := range e.Samples {
		if s.Name == name && s.matches(labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// Counter returns the integer value of a matching sample, 0 when absent —
// the convenient form for cumulative-counter deltas.
func (e *Exposition) Counter(name string, labels map[string]string) int64 {
	v, ok := e.Value(name, labels)
	if !ok {
		return 0
	}
	return int64(v)
}
