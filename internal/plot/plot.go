// Package plot renders simple ASCII line charts for the experiment
// reports: the repository has no graphics dependencies, but the
// paper's figures are line plots, so cmd/repro draws them as text.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line of a chart.
type Series struct {
	Name   string
	Values []float64
}

// The line chart's plot area and markers (one per series, cycling).
const (
	lineWidth   = 72
	lineHeight  = 18
	lineMarkers = "o*x+#@"
)

// LineChart renders series as a 72x18 ASCII chart. The x axis is the
// sample index (all series should share it); the y axis is scaled to the
// global min/max. Each series draws with its own marker; later series
// overwrite earlier ones on collisions.
type LineChart struct {
	Title  string
	XLabel string
}

// Render writes the chart. The first write error is returned (writes are
// buffered, so it surfaces from the final flush).
func (lc LineChart) Render(w io.Writer, series []Series) error {
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	var b strings.Builder
	if maxLen == 0 || math.IsInf(lo, 1) {
		fmt.Fprintln(&b, "(no data)")
		return flush(w, &b)
	}
	//lint:ignore floateq lo and hi are exact copies of input samples; equality detects a degenerate range
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, lineHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", lineWidth))
	}
	for si, s := range series {
		mk := lineMarkers[si%len(lineMarkers)]
		for j, v := range s.Values {
			x := 0
			if maxLen > 1 {
				x = j * (lineWidth - 1) / (maxLen - 1)
			}
			yFrac := (v - lo) / (hi - lo)
			y := lineHeight - 1 - int(yFrac*float64(lineHeight-1)+0.5)
			if y < 0 {
				y = 0
			}
			if y >= lineHeight {
				y = lineHeight - 1
			}
			grid[y][x] = mk
		}
	}

	if lc.Title != "" {
		fmt.Fprintln(&b, lc.Title)
	}
	yw := 10
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%.4g", hi)
		case lineHeight - 1:
			label = fmt.Sprintf("%.4g", lo)
		case lineHeight / 2:
			label = fmt.Sprintf("%.4g", (hi+lo)/2)
		}
		fmt.Fprintf(&b, "%*s |%s\n", yw, label, string(row))
	}
	fmt.Fprintf(&b, "%*s +%s\n", yw, "", strings.Repeat("-", lineWidth))
	if lc.XLabel != "" {
		fmt.Fprintf(&b, "%*s  %s\n", yw, "", lc.XLabel)
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", lineMarkers[si%len(lineMarkers)], s.Name))
	}
	fmt.Fprintf(&b, "%*s  legend: %s\n", yw, "", strings.Join(legend, "  "))
	return flush(w, &b)
}

// flush writes an accumulated report in a single checked write.
func flush(w io.Writer, b *strings.Builder) error {
	_, err := io.WriteString(w, b.String())
	return err
}
