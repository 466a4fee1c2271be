package plot

import (
	"bytes"
	"strings"
	"testing"
)

func TestLineChartRenders(t *testing.T) {
	var buf bytes.Buffer
	lc := LineChart{Title: "test chart", XLabel: "#configs"}
	lc.Render(&buf, []Series{
		{Name: "a", Values: []float64{1, 2, 3, 4, 5}},
		{Name: "b", Values: []float64{5, 4, 3, 2, 1}},
	})
	out := buf.String()
	if !strings.Contains(out, "test chart") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "legend: o=a  *=b") {
		t.Fatalf("missing legend: %s", out)
	}
	if !strings.Contains(out, "#configs") {
		t.Fatal("missing x label")
	}
	if !strings.Contains(out, "5") || !strings.Contains(out, "1") {
		t.Fatal("missing y-axis bounds")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+lineHeight+1+1+1 { // title + rows + axis + xlabel + legend
		t.Fatalf("unexpected line count %d", len(lines))
	}
}

func TestLineChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	LineChart{}.Render(&buf, nil)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	var buf bytes.Buffer
	LineChart{}.Render(&buf, []Series{{Name: "c", Values: []float64{3, 3, 3}}})
	if buf.Len() == 0 {
		t.Fatal("constant series should render")
	}
}

func TestLineChartSinglePoint(t *testing.T) {
	var buf bytes.Buffer
	LineChart{}.Render(&buf, []Series{{Name: "p", Values: []float64{7}}})
	if !strings.Contains(buf.String(), "o") {
		t.Fatal("single point should draw a marker")
	}
}
