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
demo_latency_seconds_bucket{le="0.002"} 9 # {trace_id="77"} 0.0015 1700000000.5
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

func TestParseExemplar(t *testing.T) {
	e, err := Parse(wellFormed)
	if err != nil {
		t.Fatal(err)
	}
	var withEx *Sample
	for i := range e.Samples {
		if e.Samples[i].Exemplar != nil {
			if withEx != nil {
				t.Fatal("more than one exemplar parsed")
			}
			withEx = &e.Samples[i]
		}
	}
	if withEx == nil {
		t.Fatal("no exemplar parsed")
	}
	if withEx.Name != "demo_latency_seconds_bucket" || withEx.Labels["le"] != "0.002" {
		t.Fatalf("exemplar on the wrong sample: %+v", *withEx)
	}
	if withEx.Exemplar["trace_id"] != "77" {
		t.Fatalf("exemplar labels = %v", withEx.Exemplar)
	}
	if withEx.Value != 9 {
		t.Fatalf("exemplar-carrying sample value = %v, want 9", withEx.Value)
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
		{"unterminated exemplar", "# HELP x y\n# TYPE x counter\nx 1 # {a=\"1\" 2\n", "unterminated exemplar"},
		{"bad exemplar number", "# HELP x y\n# TYPE x counter\nx 1 # {a=\"1\"} nope\n", "bad exemplar number"},
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
