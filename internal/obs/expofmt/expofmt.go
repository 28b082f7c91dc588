// Package expofmt parses the Prometheus text exposition format, version
// 0.0.4 — the format every /metrics surface in this repository declares and
// emits. Tests scrape the library's and the server's /metrics through it to
// hold each body to that format and to reconcile cumulative counters against
// what a client saw. The parser is deliberately strict: every sample's family
// must be preceded by its # HELP and # TYPE lines (each at most once, the
// type one of the format's five), and a sample line is `name[{labels}] value
// [timestamp]` with quoted, escaped label values and an integer millisecond
// timestamp. Anything else after the value — an OpenMetrics
// `# {trace_id="…"} …` suffix, say — is an error, never a silent skip,
// because a scrape that parses loosely cannot be trusted to verify anything.
package expofmt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is one fully parsed scrape: the samples in emission order plus
// the per-family TYPE and HELP metadata.
type Exposition struct {
	Samples []Sample
	Types   map[string]string
	Help    map[string]string
}

// metricTypes are the TYPE values 0.0.4 defines.
var metricTypes = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}

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
			if _, dup := e.Help[parts[0]]; dup {
				return nil, fmt.Errorf("expofmt: line %d: second HELP for %s", ln+1, parts[0])
			}
			e.Help[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !metricTypes[parts[1]] {
				return nil, fmt.Errorf("expofmt: line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := e.Types[parts[0]]; dup {
				return nil, fmt.Errorf("expofmt: line %d: second TYPE for %s", ln+1, parts[0])
			}
			e.Types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("expofmt: line %d: %v", ln+1, err)
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

// parseSample parses one `name[{labels}] value [timestamp]` line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	end := strings.IndexAny(line, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("malformed sample: %q", line)
	}
	s.Name = line[:end]
	if !validName(s.Name, true) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest := line[end:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, err
		}
		if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			return s, fmt.Errorf("malformed sample: no blank between labels and value: %q", line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("want `value [timestamp]` after the name and labels, got %q", rest)
	}
	var err error
	if s.Value, err = parseValue(fields[0]); err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q: want integer milliseconds", fields[1])
		}
	}
	return s, nil
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, without colons, a label name.
func validName(s string, colons bool) bool {
	for i, c := range s {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			colons && c == ':' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return s != ""
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

// parseLabels parses a label set from just after its opening brace:
// `name="value"` pairs separated by commas (a trailing comma allowed),
// values escaped as \\, \" and \n. It returns the labels and the text after
// the closing brace.
func parseLabels(in string) (map[string]string, string, error) {
	out := map[string]string{}
	for {
		if strings.HasPrefix(in, "}") {
			return out, in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq < 0 || !validName(in[:eq], false) || !strings.HasPrefix(in[eq+1:], `"`) {
			return nil, "", fmt.Errorf("malformed label at %q", in)
		}
		name := in[:eq]
		in = in[eq+2:]
		var val strings.Builder
		closed := false
		for len(in) > 0 && !closed {
			c := in[0]
			in = in[1:]
			switch c {
			case '"':
				closed = true
			case '\\':
				if in == "" {
					return nil, "", fmt.Errorf("label %s: unterminated escape", name)
				}
				switch in[0] {
				case '\\', '"':
					val.WriteByte(in[0])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, in[0])
				}
				in = in[1:]
			default:
				val.WriteByte(c)
			}
		}
		if !closed {
			return nil, "", fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := out[name]; dup {
			return nil, "", fmt.Errorf("label %s repeated", name)
		}
		out[name] = val.String()
		if strings.HasPrefix(in, ",") {
			in = in[1:]
		} else if !strings.HasPrefix(in, "}") {
			return nil, "", fmt.Errorf("malformed label set after %s: %q", name, in)
		}
	}
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
