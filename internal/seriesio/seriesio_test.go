package seriesio

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func write(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "db.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadCSV(t *testing.T) {
	p := write(t, "1,0.5,1.5,2.5\n\n2,3,4,5\n")
	labels, series, err := ReadCSV(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[0] != 1 || labels[1] != 2 {
		t.Fatalf("labels = %v", labels)
	}
	if len(series) != 2 || len(series[0]) != 3 || series[0][1] != 1.5 || series[1][2] != 5 {
		t.Fatalf("series = %v", series)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		content, wantSub string
	}{
		{"1,2\n3,4,5,6\n", "need label plus"},
		{"x,1,2\n3,4,5\n", "bad label"},
		{"1,2,zzz\n3,4,5\n", "bad value"},
		{"1,2,3\n", "at least 2 rows"},
		{"1,2,3\n4,5,NaN\n", "db.csv: row 1 sample 1 is NaN"},
		{"1,-Inf,3\n4,5,6\n", "db.csv: row 0 sample 0 is -Inf"},
		{"1,2,3\n\n4,inf,6\n", "db.csv: row 1 sample 0 is +Inf"},
		{"1,2,3\n4,1e200,-1e200\n", "db.csv: row 1 has a squared norm"},
		{"1,2,3\n4,5,6,7\n", "db.csv: row 1 length 3 != 2"},
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(write(t, c.content)); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("content %q: err = %v, want substring %q", c.content, err, c.wantSub)
		}
	}
	if _, _, err := ReadCSV(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// FuzzReadCSV holds ReadCSV to its contract on arbitrary bytes: an input is
// refused, or it yields at least 2 equally long rows of at least 2 finite
// values, one label each, that read back bit for bit after re-serialising in the layout
// mkdata writes. No input panics.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,0.5,1.5,2.5\n\n2,3,4,5\n",
		"1,2\n3,4,5,6\n",
		"1,2,3\n4,5,NaN\n",
		" -7 , -0 ,1e-300\r\n+3,0x1p-2,5e2\n",
		"1,2,3\n4,1e400,6\n",
		"0,1,2,3,4,5,6,7\n1,1,2\n2,3,4\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "db.csv")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		labels, series, err := ReadCSV(p)
		if err != nil {
			return
		}
		if len(series) < 2 || len(labels) != len(series) {
			t.Fatalf("accepted %d rows with %d labels", len(series), len(labels))
		}
		var b strings.Builder
		for i, row := range series {
			if len(row) < 2 || len(row) != len(series[0]) {
				t.Fatalf("row %d has %d values, row 0 %d", i, len(row), len(series[0]))
			}
			b.WriteString(strconv.Itoa(labels[i]))
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d value %d is %v", i, j, v)
				}
				b.WriteByte(',')
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		labels2, series2, err := ReadCSV(p)
		if err != nil {
			t.Fatalf("re-serialised input refused: %v\n%s", err, b.String())
		}
		if !slices.Equal(labels, labels2) || len(series2) != len(series) {
			t.Fatalf("labels %v read back as %v", labels, labels2)
		}
		for i := range series {
			if !slices.EqualFunc(series[i], series2[i], func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("row %d %v read back as %v", i, series[i], series2[i])
			}
		}
	})
}
