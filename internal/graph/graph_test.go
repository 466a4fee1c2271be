package graph

import (
	"testing"

	"repro/internal/tensor"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range ModelNames {
		g, err := Model(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if len(g.TunableNodes()) == 0 {
			t.Fatalf("%s: no tunable nodes", name)
		}
	}
	if _, err := Model("lenet-5"); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestModelOutputShapes(t *testing.T) {
	for _, name := range ModelNames {
		g, _ := Model(name)
		out := g.Output.OutShape
		if out.Rank() != 2 || out[0] != 1 || out[1] != 1000 {
			t.Fatalf("%s: output shape %v, want (1, 1000)", name, out)
		}
	}
}

func TestModelFLOPs(t *testing.T) {
	// Published MAC counts (x2 for FLOPs): VGG-16 ~15.5G MACs, ResNet-18
	// ~1.8G, MobileNet-v1 ~569M, AlexNet ~0.7G, SqueezeNet-v1.1 ~0.35G.
	want := map[string][2]float64{ // GFLOPs bounds (2*MACs)
		"vgg-16":          {28, 33},
		"resnet-18":       {3.2, 4.0},
		"mobilenet-v1":    {1.0, 1.3},
		"alexnet":         {1.2, 1.6},
		"squeezenet-v1.1": {0.6, 0.8},
	}
	for name, bounds := range want {
		g, _ := Model(name)
		gflops := float64(g.TotalFLOPs()) / 1e9
		if gflops < bounds[0] || gflops > bounds[1] {
			t.Errorf("%s: %.2f GFLOPs, want in [%v, %v]", name, gflops, bounds[0], bounds[1])
		}
	}
}

func TestMobileNetTaskCountIs19(t *testing.T) {
	g := MobileNetV1()
	tasks := ExtractTasks(g, ConvOnly)
	if len(tasks) != 19 {
		for _, tk := range tasks {
			t.Logf("  %v", tk)
		}
		t.Fatalf("MobileNet-v1 conv/dw tasks = %d, want 19 (paper Fig. 5)", len(tasks))
	}
	// T1 must be the stem conv (first appearance ordering).
	if tasks[0].Workload.Op != tensor.OpConv2D || tasks[0].Workload.C != 3 {
		t.Fatalf("T1 = %v, want the 3-channel stem conv", tasks[0])
	}
	// 13 separable blocks + stem = 27 conv/dw kernels, so dedup must give
	// total count 27 across the 19 tasks.
	total := 0
	for _, tk := range tasks {
		total += tk.Count
	}
	if total != 27 {
		t.Fatalf("total conv/dw kernels = %d, want 27", total)
	}
}

func TestTaskExtractionCounts(t *testing.T) {
	want := map[string]int{ // ConvOnly task counts from our graphs
		"alexnet":         5,
		"vgg-16":          9,
		"resnet-18":       11,
		"mobilenet-v1":    19,
		"squeezenet-v1.1": 18,
	}
	for name, n := range want {
		g, _ := Model(name)
		tasks := ExtractTasks(g, ConvOnly)
		if len(tasks) != n {
			for _, tk := range tasks {
				t.Logf("  %v", tk)
			}
			t.Errorf("%s: %d conv tasks, want %d", name, len(tasks), n)
		}
	}
	total := 0
	for _, name := range ModelNames {
		g, err := Model(name)
		if err != nil {
			t.Fatal(err)
		}
		total += len(ExtractTasks(g, ConvOnly))
	}
	// The paper reports 58 nodes; our faithful graphs give 62 (documented
	// in EXPERIMENTS.md). Guard the invariant so drift is caught.
	if total != 62 {
		t.Fatalf("total conv tasks = %d, want 62", total)
	}
}

func TestDenseTasksIncluded(t *testing.T) {
	g := AlexNet()
	all := ExtractTasks(g, AllOps)
	convOnly := ExtractTasks(g, ConvOnly)
	if len(all) != len(convOnly)+3 {
		t.Fatalf("AlexNet all-op tasks = %d, conv-only = %d, want +3 dense", len(all), len(convOnly))
	}
}

func TestFusionMobileNet(t *testing.T) {
	g := MobileNetV1()
	fg := Fuse(g)
	// Every conv/dw in MobileNet carries bn+relu: each tunable kernel must
	// absorb exactly 2 epilogue ops.
	for _, f := range fg.TunableKernels() {
		if f.Anchor.Op == OpDense {
			continue
		}
		if len(f.Fused) != 2 {
			t.Fatalf("kernel %s fused %d ops, want 2 (bn+relu)", f.Name(), len(f.Fused))
		}
		if f.Fused[0].Op != OpBatchNorm || f.Fused[1].Op != OpReLU {
			t.Fatalf("kernel %s fused %v", f.Name(), f.Fused)
		}
	}
	if fg.NumKernels() >= g.NumNodes() {
		t.Fatal("fusion should reduce kernel count")
	}
	if fg.FusionReport() == "" {
		t.Fatal("report empty")
	}
}

func TestFusionResNetResidual(t *testing.T) {
	g := ResNet18()
	fg := Fuse(g)
	// In each basic block the second conv's chain is conv->bn->add->relu;
	// the add must fuse into that conv (the later operand), giving fused
	// length 3 for non-downsample blocks.
	foundAddFusion := false
	for _, f := range fg.TunableKernels() {
		for _, n := range f.Fused {
			if n.Op == OpAdd {
				foundAddFusion = true
				// The epilogue after add should include the block relu.
				last := f.Fused[len(f.Fused)-1]
				if last.Op != OpReLU {
					t.Fatalf("kernel %s: add fused but final op is %v", f.Name(), last.Op)
				}
			}
		}
	}
	if !foundAddFusion {
		t.Fatal("residual add should fuse into the preceding conv")
	}
}

func TestFusionSharedTensorNotAbsorbed(t *testing.T) {
	// SqueezeNet's squeeze output feeds two expand convs: its relu has two
	// consumers... actually the relu itself is single-consumer-chained to
	// the squeeze conv; the *relu output* has 2 consumers. The chain stops
	// at the relu, which is correct; check no op with multiple consumers
	// was absorbed.
	g := SqueezeNetV11()
	fg := Fuse(g)
	consumers := make(map[*Node]int)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumers[in]++
		}
	}
	for _, f := range fg.Nodes {
		for i, n := range f.Fused {
			// Only the last op of a fused chain may have multiple consumers.
			if i < len(f.Fused)-1 && consumers[n] > 1 {
				t.Fatalf("kernel %s absorbed multi-consumer op %s mid-chain", f.Name(), n.Name)
			}
		}
	}
}

func TestFusedWorkloadsUnchanged(t *testing.T) {
	// Fusion must not alter any tuning workload.
	g := ResNet18()
	before := make(map[string]int)
	for _, n := range g.TunableNodes() {
		before[n.Workload.Key()]++
	}
	after := make(map[string]int)
	for _, f := range Fuse(g).TunableKernels() {
		after[f.Anchor.Workload.Key()]++
	}
	if len(before) != len(after) {
		t.Fatalf("workload sets differ: %d vs %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("workload %s count %d vs %d", k, v, after[k])
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("conv on rank-2", func() {
		b := NewBuilder("t")
		x := b.Input("in", 1, 3, 8, 8)
		x = b.Flatten("f", x)
		b.Conv("c", x, 8, 3, 1, 1)
	})
	expectPanic("dense on rank-4", func() {
		b := NewBuilder("t")
		x := b.Input("in", 1, 3, 8, 8)
		b.Dense("d", x, 10)
	})
	expectPanic("add shape mismatch", func() {
		b := NewBuilder("t")
		x := b.Input("in", 1, 3, 8, 8)
		y := b.Conv("c", x, 8, 3, 1, 1)
		b.Add("a", x, y)
	})
	expectPanic("empty concat", func() {
		b := NewBuilder("t")
		b.Concat("cat")
	})
	expectPanic("concat mismatch", func() {
		b := NewBuilder("t")
		x := b.Input("in", 1, 3, 8, 8)
		y := b.MaxPool("p", x, 2, 2, 0, false)
		b.Concat("cat", x, y)
	})
	expectPanic("invalid conv shape", func() {
		b := NewBuilder("t")
		x := b.Input("in", 1, 3, 4, 4)
		b.Conv("c", x, 8, 7, 1, 0)
	})
}

func TestGraphValidateErrors(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("in", 1, 3, 8, 8)
	c := b.Conv("c", x, 8, 3, 1, 1)
	g := b.Finish(c)

	// Break topological order.
	g2 := &Graph{Name: "bad", Nodes: []*Node{g.Nodes[1], g.Nodes[0]}, Output: g.Nodes[1]}
	if g2.Validate() == nil {
		t.Fatal("reversed order should fail validation")
	}
	// Output outside graph.
	stranger := &Node{Name: "x", OutShape: tensor.NewShape(1)}
	g3 := &Graph{Name: "bad", Nodes: g.Nodes, Output: stranger}
	if g3.Validate() == nil {
		t.Fatal("foreign output should fail validation")
	}
	// Missing output.
	g4 := &Graph{Name: "bad", Nodes: g.Nodes}
	if g4.Validate() == nil {
		t.Fatal("nil output should fail validation")
	}
}

func TestSqueezeNetShapes(t *testing.T) {
	g := SqueezeNetV11()
	// conv1 on 224 with k3 s2 p0 -> 111; ceil-mode pool -> 55.
	var conv1, pool1 *Node
	for _, n := range g.Nodes {
		switch n.Name {
		case "conv1":
			conv1 = n
		case "pool1":
			pool1 = n
		}
	}
	if conv1 == nil || pool1 == nil {
		t.Fatal("nodes missing")
	}
	if conv1.OutShape[2] != 111 {
		t.Fatalf("conv1 H = %d, want 111", conv1.OutShape[2])
	}
	if pool1.OutShape[2] != 55 {
		t.Fatalf("pool1 H = %d, want 55", pool1.OutShape[2])
	}
}

func TestOpTypeStrings(t *testing.T) {
	ops := []OpType{OpInput, OpConv2D, OpDepthwiseConv2D, OpDense, OpBatchNorm, OpReLU,
		OpMaxPool, OpAvgPool, OpGlobalAvgPool, OpAdd, OpConcat, OpFlatten, OpSoftmax, OpDropout, OpLRN}
	seen := make(map[string]bool)
	for _, o := range ops {
		s := o.String()
		if s == "" || seen[s] {
			t.Fatalf("op %d string %q empty or duplicated", int(o), s)
		}
		seen[s] = true
	}
	if OpType(99).String() == "" {
		t.Fatal("unknown op should stringify")
	}
	if !OpConv2D.Tunable() || OpReLU.Tunable() {
		t.Fatal("tunable flags wrong")
	}
}

func TestAvgPoolAndGlobalAvgPool(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("in", 1, 8, 14, 14)
	a := b.AvgPool("ap", x, 2, 2, 0)
	if a.OutShape[2] != 7 {
		t.Fatalf("avg pool H = %d", a.OutShape[2])
	}
	gp := b.GlobalAvgPool("gap", a)
	if gp.OutShape[2] != 1 || gp.OutShape[3] != 1 {
		t.Fatalf("gap shape %v", gp.OutShape)
	}
}

func TestTaskString(t *testing.T) {
	g := MobileNetV1()
	tasks := ExtractTasks(g, ConvOnly)
	if tasks[0].String() == "" || tasks[0].Name != "mobilenet-v1.T1" {
		t.Fatalf("task naming wrong: %v", tasks[0])
	}
}
