package record

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/space"
	"repro/internal/tensor"
)

func sampleRecords() []Record {
	return []Record{
		{Task: "m.T1", Workload: "conv_a", Tuner: "autotvm", Step: 1, Config: []int{0, 1}, GFLOPS: 100, Valid: true},
		{Task: "m.T1", Workload: "conv_a", Tuner: "autotvm", Step: 2, Config: []int{1, 1}, GFLOPS: 250, Valid: true},
		{Task: "m.T1", Workload: "conv_a", Tuner: "autotvm", Step: 3, Config: []int{2, 0}, GFLOPS: 0, Valid: false},
		{Task: "m.T2", Workload: "conv_b", Tuner: "autotvm", Step: 1, Config: []int{3, 2}, GFLOPS: 50, Valid: true},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := sampleRecords()
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Task != recs[i].Task || got[i].GFLOPS != recs[i].GFLOPS ||
			got[i].Valid != recs[i].Valid || len(got[i].Config) != len(recs[i].Config) {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := "{\"task\":\"a\",\"valid\":true,\"gflops\":1}\n\n{\"task\":\"b\",\"valid\":true,\"gflops\":2}\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
}

func TestReadMalformed(t *testing.T) {
	// A malformed line followed by more content is corruption and errors; a
	// malformed final line is a crash-truncated tail and is dropped (the
	// full crash-recovery contract lives in crash_test.go).
	if _, err := Read(strings.NewReader("not json\n{\"task\":\"a\",\"valid\":true}\n")); err == nil {
		t.Fatal("malformed mid-file line should error")
	}
	got, err := Read(strings.NewReader("{\"task\":\"a\",\"valid\":true}\nnot json"))
	if err != nil || len(got) != 1 {
		t.Fatalf("torn final line: got %v, %v", got, err)
	}
}

func TestReadEmpty(t *testing.T) {
	got, err := Read(strings.NewReader(""))
	if err != nil || got != nil {
		t.Fatalf("empty read = %v, %v", got, err)
	}
}

func TestToConfig(t *testing.T) {
	w := tensor.Conv2D(1, 16, 28, 28, 32, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	c := sp.FromFlat(12345)
	r := Record{Config: c.Index}
	got, err := r.ToConfig(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatal("ToConfig mismatch")
	}
	bad := Record{Config: []int{1}}
	if _, err := bad.ToConfig(sp); err == nil {
		t.Fatal("wrong arity should error")
	}
}
