package expofmt

import (
	"math"
	"strings"
	"testing"
)

const wellFormed = `# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{endpoint="search",class="ok"} 12
demo_requests_total{endpoint="search",class="rejected"} 3
# HELP demo_latency_seconds Request latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.001"} 4
demo_latency_seconds_bucket{le="0.002"} 9 1700000000500
demo_latency_seconds_bucket{le="+Inf"} 10
demo_latency_seconds_sum 0.02
demo_latency_seconds_count 10
# HELP demo_up 1 while serving.
# TYPE demo_up gauge
demo_up 1
`

func TestParseWellFormed(t *testing.T) {
	e, err := Parse(wellFormed)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Samples) != 8 {
		t.Fatalf("parsed %d samples, want 8", len(e.Samples))
	}
	if e.Types["demo_latency_seconds"] != "histogram" || e.Types["demo_requests_total"] != "counter" {
		t.Fatalf("types wrong: %v", e.Types)
	}
	if e.Help["demo_up"] != "1 while serving." {
		t.Fatalf("help wrong: %q", e.Help["demo_up"])
	}
	if got := e.Counter("demo_requests_total", map[string]string{"endpoint": "search", "class": "rejected"}); got != 3 {
		t.Fatalf("rejected counter = %d, want 3", got)
	}
	if _, ok := e.Value("demo_requests_total", map[string]string{"class": "nope"}); ok {
		t.Fatal("matched a nonexistent label set")
	}
	if v, ok := e.Value("demo_up", nil); !ok || v != 1 {
		t.Fatalf("demo_up = %v,%v", v, ok)
	}
	if got := len(e.Find("demo_latency_seconds_bucket")); got != 3 {
		t.Fatalf("Find returned %d buckets, want 3", got)
	}
}

// A 0.0.4 sample line ends at its value or at an integer timestamp after it:
// an OpenMetrics exemplar, a float timestamp or any other trailing token is
// refused, on every kind of sample line.
func TestParseRefusesExemplar(t *testing.T) {
	e, err := Parse(wellFormed)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("demo_latency_seconds_bucket", map[string]string{"le": "0.002"}); !ok || v != 9 {
		t.Fatalf("timestamped bucket = %v,%v, want 9", v, ok)
	}
	const head = "# HELP h y\n# TYPE h histogram\n"
	for _, line := range []string{
		`h_bucket{le="0.002"} 9 # {trace_id="77"} 0.0015 1700000000.5`,
		`h_bucket{le="0.002"} 9 # {trace_id="77"} 0.0015`,
		`h_bucket{le="+Inf"} 9 1700000000500 # {trace_id="77"} 0.0015`,
		`h_sum 9 1700000000.5`,
		`h_count 9 1 2`,
		`h_count 9 #`,
	} {
		if _, err := Parse(head + line + "\n"); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"sample before HELP", "# TYPE x counter\nx 1\n", "before its # HELP"},
		{"sample before TYPE", "# HELP x y\nx 1\n", "before its # TYPE"},
		{"help without text", "# HELP x\n", "HELP without text"},
		{"malformed type", "# TYPE x\n", "malformed TYPE"},
		{"malformed sample", "# HELP x y\n# TYPE x counter\nx\n", "malformed sample"},
		{"bad value", "# HELP x y\n# TYPE x counter\nx ten\n", "bad sample value"},
		{"malformed label", "# HELP x y\n# TYPE x counter\nx{ab} 1\n", "malformed label"},
		{"exemplar", "# HELP x y\n# TYPE x counter\nx 1 # {a=\"1\"} 2\n", "want `value [timestamp]`"},
		{"float timestamp", "# HELP x y\n# TYPE x counter\nx 1 2.5\n", "bad timestamp"},
		{"unknown type", "# TYPE x countr\n", "malformed TYPE"},
		{"second TYPE", "# TYPE x counter\n# TYPE x gauge\n", "second TYPE"},
		{"second HELP", "# HELP x y\n# HELP x z\n", "second HELP"},
		{"bad name", "# HELP x y\n# TYPE x counter\n1x 1\n", "bad metric name"},
		{"unterminated label", "# HELP x y\n# TYPE x counter\nx{a=\"1} 1\n", "unterminated value"},
		{"bad escape", "# HELP x y\n# TYPE x counter\nx{a=\"\\t\"} 1\n", "bad escape"},
		{"repeated label", "# HELP x y\n# TYPE x counter\nx{a=\"1\",a=\"2\"} 1\n", "repeated"},
		{"no blank before value", "# HELP x y\n# TYPE x counter\nx{a=\"1\"}1\n", "no blank"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecialValues(t *testing.T) {
	body := "# HELP x y\n# TYPE x gauge\nx{k=\"inf\"} +Inf\nx{k=\"ninf\"} -Inf\nx{k=\"nan\"} NaN\n"
	e, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Value("x", map[string]string{"k": "inf"}); !math.IsInf(v, 1) {
		t.Errorf("+Inf parsed as %v", v)
	}
	if v, _ := e.Value("x", map[string]string{"k": "ninf"}); !math.IsInf(v, -1) {
		t.Errorf("-Inf parsed as %v", v)
	}
	if v, _ := e.Value("x", map[string]string{"k": "nan"}); !math.IsNaN(v) {
		t.Errorf("NaN parsed as %v", v)
	}
}

// Label values are quoted and escaped: a comma, a space, a brace or an
// escaped quote inside one is part of the value.
func TestParseLabelValues(t *testing.T) {
	body := "# HELP x y\n# TYPE x gauge\n" + `x{a="1,b=2",c="} {",d="q\"\\\n",} 5` + "\n"
	e, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "1,b=2", "c": "} {", "d": "q\"\\\n"}
	if len(e.Samples) != 1 || len(e.Samples[0].Labels) != 3 || e.Samples[0].Value != 5 {
		t.Fatalf("parsed %+v", e.Samples)
	}
	for k, v := range want {
		if got := e.Samples[0].Labels[k]; got != v {
			t.Errorf("label %s = %q, want %q", k, got, v)
		}
	}
}
