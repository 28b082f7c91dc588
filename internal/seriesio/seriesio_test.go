package seriesio

import (
	"os"
	"path/filepath"
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
		{"1,2,3\n4,5,NaN\n", "db.csv:2: value 1 is NaN"},
		{"1,-Inf,3\n4,5,6\n", "db.csv:1: value 0 is -Inf"},
		{"1,2,3\n\n4,inf,6\n", "db.csv:3: value 0 is +Inf"},
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
