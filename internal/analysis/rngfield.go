package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGField flags snapshot-intent structs — named like a session, state,
// run, snapshot, or checkpoint — that hold a bare math/rand generator
// (*rand.Rand, or the rand.Source/Source64 interfaces). A *rand.Rand's
// internal state is unexported and cannot be serialized, so a checkpoint of
// such a struct either drops the generator or diverges on restore; the
// serializable-session work (internal/snap, tuner.Session.Snapshot)
// depends on every piece of session state round-tripping. State that needs
// randomness must carry a counted source (repro/internal/rng), whose
// (seed, draws) state is a plain serializable value. Transient structs that
// merely pass a generator through a computation are fine — and, when their
// name collides with the suffix list, can say so with a //lint:ignore
// rngfield directive.
type RNGField struct{}

// Name implements Analyzer.
func (RNGField) Name() string { return "rngfield" }

// Doc implements Analyzer.
func (RNGField) Doc() string {
	return "flag session/state/run/snapshot/checkpoint structs holding *math/rand.Rand or rand.Source fields; serializable state needs a counted rng.Source"
}

// rngStateSuffixes are the type-name suffixes that announce snapshot or
// restore intent.
var rngStateSuffixes = []string{"session", "state", "run", "snapshot", "checkpoint"}

// Run implements Analyzer.
func (RNGField) Run(p *Pass) {
	inspect(p.Pkg, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		name := strings.ToLower(ts.Name.Name)
		suffix := ""
		for _, s := range rngStateSuffixes {
			if strings.HasSuffix(name, s) {
				suffix = s
				break
			}
		}
		if suffix == "" {
			return true
		}
		for _, f := range st.Fields.List {
			if what, bad := mathRandType(p.Pkg.Info.TypeOf(f.Type)); bad {
				p.Reportf(f.Type.Pos(), "%s-like struct %s holds %s, whose state cannot be serialized; store a counted source (internal/rng) so snapshot/restore stays bit-identical", suffix, ts.Name.Name, what)
			}
		}
		return true
	})
}

// mathRandType reports whether t is *math/rand.Rand, math/rand.Rand, or one
// of the math/rand source interfaces (directly or behind one pointer).
func mathRandType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "math/rand" {
		return "", false
	}
	switch obj.Name() {
	case "Rand", "Source", "Source64", "Zipf":
		return "math/rand." + obj.Name(), true
	}
	return "", false
}
