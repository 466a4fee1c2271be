package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Task is one node-wise tuning problem: a unique workload shared by Count
// fused kernels of a model. Tasks are the unit the paper's framework
// optimizes ("58 nodes that need to be optimized in these models").
type Task struct {
	Index    int    // 1-based order of first appearance (Fig. 5's T1..T19)
	Name     string // "<model>.T<index>"
	Workload tensor.Workload
	Count    int // fused kernels sharing this workload
}

// String renders "mobilenet-v1.T3 (conv2d_... x2)".
func (t Task) String() string {
	return fmt.Sprintf("%s (%s x%d)", t.Name, t.Workload.Key(), t.Count)
}

// ExtractOpts controls task extraction.
type ExtractOpts struct {
	// Ops restricts extraction to the listed operator kinds. Nil means all
	// tunable kinds. The paper's Fig. 5 flow extracts conv2d + depthwise
	// (ConvOnly); Table I end-to-end tuning uses every tunable kind.
	Ops []tensor.OpKind
}

// ConvOnly extracts only conv2d and depthwise_conv2d tasks, matching the
// AutoTVM CUDA tutorial flow the paper's MobileNet experiments follow.
var ConvOnly = ExtractOpts{Ops: []tensor.OpKind{tensor.OpConv2D, tensor.OpDepthwiseConv2D}}

// AllOps extracts every tunable operator kind.
var AllOps = ExtractOpts{}

func (o ExtractOpts) wants(k tensor.OpKind) bool {
	if len(o.Ops) == 0 {
		return true
	}
	for _, kk := range o.Ops {
		if kk == k {
			return true
		}
	}
	return false
}

// ExtractTasks fuses the graph and de-duplicates tunable workloads into
// tasks, ordered by first appearance.
func ExtractTasks(g *Graph, opts ExtractOpts) []Task {
	fg := Fuse(g)
	return ExtractTasksFused(fg, opts)
}

// ExtractTasksFused extracts tasks from an already-fused graph.
func ExtractTasksFused(fg *FusedGraph, opts ExtractOpts) []Task {
	byKey := make(map[string]int)
	var tasks []Task
	for _, f := range fg.TunableKernels() {
		w := f.Anchor.Workload
		if !opts.wants(w.Op) {
			continue
		}
		key := w.Key()
		if i, ok := byKey[key]; ok {
			tasks[i].Count++
			continue
		}
		idx := len(tasks) + 1
		byKey[key] = len(tasks)
		tasks = append(tasks, Task{
			Index:    idx,
			Name:     fmt.Sprintf("%s.T%d", fg.Name, idx),
			Workload: w,
			Count:    1,
		})
	}
	return tasks
}
