package analysis

import (
	"go/ast"
	"go/types"
)

// MutexCopy flags by-value copies of structs that contain a sync.Mutex,
// sync.RWMutex, sync.WaitGroup, or sync.Once — directly or through nested
// struct/array fields. A copied lock is an independent lock: code that
// copies hwsim.Simulator, transfer.History, or backend.SharedCache gets a
// mutex that no longer guards anything. Flagged sites: by-value receivers,
// parameters, and results; assignments from existing lock-holding values;
// by-value call arguments; and range clauses that copy lock-holding
// elements. Constructing a fresh value with a composite literal is fine —
// a new value has no lock state to lose.
type MutexCopy struct{}

// Name implements Analyzer.
func (MutexCopy) Name() string { return "mutexcopy" }

// Doc implements Analyzer.
func (MutexCopy) Doc() string {
	return "flag by-value copies (receiver, param, result, assignment, argument, range) of types containing sync locks"
}

// Run implements Analyzer.
func (MutexCopy) Run(p *Pass) {
	info := p.Pkg.Info
	lc := &lockCache{seen: map[types.Type]bool{}}

	inspect(p.Pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFuncType(p, lc, n.Recv, n.Type)
		case *ast.FuncLit:
			checkFuncType(p, lc, nil, n.Type)
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if t := info.TypeOf(rhs); lc.contains(t) && !isFreshValue(rhs) {
					p.Reportf(rhs.Pos(), "assignment copies %s which contains a sync lock; use a pointer", typeName(t))
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if t := info.TypeOf(v); lc.contains(t) && !isFreshValue(v) {
					p.Reportf(v.Pos(), "variable initialization copies %s which contains a sync lock; use a pointer", typeName(t))
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if t := info.TypeOf(arg); lc.contains(t) && !isFreshValue(arg) {
					p.Reportf(arg.Pos(), "call passes %s by value, copying its sync lock; pass a pointer", typeName(t))
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				if t := info.TypeOf(n.Value); lc.contains(t) {
					p.Reportf(n.Value.Pos(), "range clause copies %s elements which contain a sync lock; range over indices or pointers", typeName(t))
				}
			}
		}
		return true
	})
}

// checkFuncType flags by-value lock-holding receivers, params, and results.
func checkFuncType(p *Pass, lc *lockCache, recv *ast.FieldList, ft *ast.FuncType) {
	info := p.Pkg.Info
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := info.TypeOf(f.Type)
			if lc.contains(t) {
				p.Reportf(f.Type.Pos(), "%s is %s passed by value, copying its sync lock; use *%s", kind, typeName(t), typeName(t))
			}
		}
	}
	check(recv, "receiver")
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// isFreshValue reports whether e constructs a brand-new value (composite
// literal or function call / conversion), which carries no prior lock
// state and is safe to bind. Copies of *existing* values — identifiers,
// field selections, dereferences, index expressions — are the bug.
func isFreshValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit, *ast.CallExpr, *ast.FuncLit, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return isFreshValue(e.X)
	}
	return false
}

// lockCache memoizes "does this type contain a lock" over the type graph.
type lockCache struct {
	seen map[types.Type]bool
}

func (c *lockCache) contains(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := c.seen[t]; ok {
		return v
	}
	c.seen[t] = false // cycle guard: recursive types via pointers don't copy locks
	v := c.computeContains(t)
	c.seen[t] = v
	return v
}

func (c *lockCache) computeContains(t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		if isSyncLockType(t) {
			return true
		}
		return c.contains(t.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if c.contains(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.contains(t.Elem())
	case *types.Alias:
		return c.contains(types.Unalias(t))
	}
	// Pointers, slices, maps, channels, interfaces, and funcs share state
	// by reference; copying them does not copy a lock.
	return false
}

var syncLockNames = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Once":      true,
	"Cond":      true,
	"Pool":      true,
	"Map":       true,
}

func isSyncLockType(n *types.Named) bool {
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockNames[obj.Name()]
}

// typeName renders t compactly, qualifying foreign packages by name only.
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
