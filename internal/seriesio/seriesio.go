// Package seriesio reads labelled series datasets in the CSV layout mkdata
// writes (label,v0,v1,...): one series per row, an integer class label in the
// first column. It is shared by the CLI tools (shapesearch, shapeserver) so
// they agree on the format and its error messages.
package seriesio

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lbkeogh/internal/ts"
)

// ReadCSV parses the file at path into parallel label and series slices. A
// dataset needs at least 2 rows, which ts.CheckRows accepts: equally long, at
// least 2 values each, every value finite, no squared norm that overflows.
// Blank lines are skipped. Parse errors carry the path and 1-based line
// number; a row CheckRows refuses is named by its 0-based row index.
func ReadCSV(path string) ([]int, [][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var labels []int
	var series [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 3 {
			return nil, nil, fmt.Errorf("%s:%d: need label plus >= 2 values", path, line)
		}
		label, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad label: %v", path, line, err)
		}
		row := make([]float64, len(fields)-1)
		for i, fstr := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(fstr), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: bad value %d: %v", path, line, i, err)
			}
			row[i] = v
		}
		labels = append(labels, label)
		series = append(series, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(series) < 2 {
		return nil, nil, fmt.Errorf("%s: need at least 2 rows", path)
	}
	if _, err := ts.CheckRows(series, "row"); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return labels, series, nil
}
