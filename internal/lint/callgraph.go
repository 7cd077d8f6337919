package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file implements the module-wide static call graph behind the
// interprocedural checks (walltimereach, journalfence, unreachable). The
// graph is deliberately conservative and deliberately simple —
// stdlib-only, no SSA:
//
//   - Nodes are named top-level functions and methods (*types.Func from
//     FuncDecls). Function literals have no node of their own; calls
//     inside a literal are attributed to the enclosing named function,
//     because that is the function a reviewer will look at.
//   - Edges are static calls, method calls on concrete receivers,
//     method expressions, and plain references to a function name
//     (taking a function value counts as reaching it — the value may be
//     invoked anywhere).
//   - Package-level var and const initializers get one anonymous node
//     per package, outside nodes and order: it holds their edges (a
//     registry table of function values, say) for the unreachable
//     check's roots, and no other check sees it.
//   - Interface method calls are resolved with class-hierarchy
//     analysis: an edge is added to the matching method of every named
//     non-interface type in the module that implements the interface
//     (by value or pointer receiver). This over-approximates — any
//     implementation might be behind the interface — which is the safe
//     direction for "must not reach" properties.
//   - Calls through plain function-typed values (e.g. a stored
//     completion callback) are NOT resolved; this is the engine's known
//     blind spot and DESIGN.md §10 documents it.
//
// Everything downstream is computed once and memoized on the Module:
// wallFrom (which functions transitively reach a wall-clock read, with a
// deterministic minimal witness site) and ackFrom (which functions are
// reachable from a //lint:ack-path root, and from which root); the
// unreachable check adds reached (what its entry points reach) on first
// use.

// callEdge is one resolved outgoing call/reference from a function node,
// positioned at the call or reference site.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// ifaceSite is an unresolved interface method call recorded during the
// scan pass and resolved by CHA afterwards.
type ifaceSite struct {
	iface *types.Interface
	mobj  *types.Func
	pos   token.Pos
}

// wallSite is a direct wall-clock read (time.Now and friends) inside a
// function body.
type wallSite struct {
	name string
	pos  token.Pos
}

// wallWitness locates the concrete wall-clock read that makes a
// function's call cone time-dependent. The minimum (file, line, name)
// witness is propagated so messages are deterministic no matter the
// traversal order.
type wallWitness struct {
	name string
	file string
	line int
}

// lessWitness orders witnesses by (file, line, name).
func lessWitness(a, b wallWitness) bool {
	if a.file != b.file {
		return a.file < b.file
	}
	if a.line != b.line {
		return a.line < b.line
	}
	return a.name < b.name
}

// funcNode is one named function in the graph.
type funcNode struct {
	obj   *types.Func
	pkg   *Package
	edges []callEdge
	iface []ifaceSite
	wall  []wallSite
	ack   string // //lint:ack-path reason; "" when not a root
}

// callGraph is the resolved module-wide graph plus the reachability
// indexes the checks consume.
type callGraph struct {
	nodes map[*types.Func]*funcNode
	order []*funcNode // deterministic (package, file, decl) build order
	// inits holds one anonymous node per package (obj == nil, never in
	// nodes or order) carrying the edges of its package-level var and
	// const initializers, e.g. a registry table of function values.
	inits []*funcNode
	pkgs  []*Package // every module package, in Dirs order

	// wallFrom maps a function to the minimal witness wall-clock read in
	// its call cone (including its own body). Absent = provably (up to
	// the engine's blind spots) wall-clock-free.
	wallFrom map[*types.Func]wallWitness
	// ackFrom maps a function to the //lint:ack-path root it is
	// reachable from (the first such root in BFS order). Roots map to
	// themselves.
	ackFrom map[*types.Func]*funcNode
	// reached is the set of functions some entry point reaches, built
	// on first use by the unreachable check (unreachable.go).
	reached map[*types.Func]bool
}

// graph builds (once) and returns the module-wide call graph. Every
// package in the module is loaded: reachability is only meaningful over
// the whole module, not the analyzed subset.
func (m *Module) graph() (*callGraph, error) {
	if m.cgDone {
		return m.cg, m.cgErr
	}
	m.cgDone = true
	m.cg, m.cgErr = buildGraph(m)
	return m.cg, m.cgErr
}

// buildGraph loads all module packages and runs the scan, CHA, and
// reachability passes.
func buildGraph(m *Module) (*callGraph, error) {
	dirs, err := m.Dirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := m.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	g := &callGraph{nodes: make(map[*types.Func]*funcNode), pkgs: pkgs}

	// Pass 1: one node per named FuncDecl, plus ack-path roots from the
	// declaration directives.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{obj: obj, pkg: p}
				g.nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
		for _, d := range collectDeclDirectives(m, p) {
			if d.Err != "" || d.ack == "" || d.fn == nil {
				continue
			}
			if n := g.nodes[d.fn]; n != nil {
				n.ack = d.ack
			}
		}
	}

	// Pass 2: scan bodies for edges, interface sites, and wall-clock
	// reads. Function literals are walked as part of the enclosing decl;
	// package-level initializers are walked into the package's init node.
	for _, p := range pkgs {
		in := &funcNode{pkg: p}
		g.inits = append(g.inits, in)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if obj, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						scanBody(p, g.nodes[obj], d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								scanBody(p, in, v)
							}
						}
					}
				}
			}
		}
	}

	resolveInterfaces(g, pkgs)
	g.computeWallFrom(m)
	g.computeAckFrom()
	return g, nil
}

// scanBody records the outgoing edges, interface sites, and wall-clock
// reads of one function body or initializer expression.
func scanBody(p *Package, n *funcNode, body ast.Node) {
	// Method selections are handled through Info.Selections; their Sel
	// idents are marked handled so the identifier pass below does not
	// add a duplicate (or abstract-interface-method) edge for them.
	handled := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil {
			return true // qualified identifier (pkg.Func); ident pass covers it
		}
		if s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
			return true // field selection
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return true
		}
		// A method of an instantiated generic type is a distinct object;
		// the graph's node is its generic origin.
		fn = fn.Origin()
		handled[sel.Sel] = true
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok && s.Kind() == types.MethodVal {
			n.iface = append(n.iface, ifaceSite{iface: iface, mobj: fn, pos: sel.Sel.Pos()})
			return true
		}
		n.edges = append(n.edges, callEdge{callee: fn, pos: sel.Sel.Pos()})
		return true
	})
	ast.Inspect(body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil && fn.Pkg().Path() == "time" && wallFuncs[fn.Name()] {
			n.wall = append(n.wall, wallSite{name: "time." + fn.Name(), pos: id.Pos()})
			return true
		}
		n.edges = append(n.edges, callEdge{callee: fn, pos: id.Pos()})
		return true
	})
}

// resolveInterfaces applies CHA: every interface call site fans out to
// the matching method of every named module type that implements the
// interface. Candidate types are enumerated in sorted (package, name)
// order so the appended edges are deterministic.
func resolveInterfaces(g *callGraph, pkgs []*Package) {
	cands := moduleTypes(pkgs)
	for _, nodes := range [][]*funcNode{g.order, g.inits} {
		for _, n := range nodes {
			for _, site := range n.iface {
				for _, c := range cands {
					if impl := implMethod(c, site.iface, site.mobj); impl != nil {
						n.edges = append(n.edges, callEdge{callee: impl, pos: site.pos})
					}
				}
			}
		}
	}
}

// moduleTypes returns every named non-interface type declared at
// package level in the module, in sorted (package, name) order.
func moduleTypes(pkgs []*Package) []types.Type {
	var cands []types.Type
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() { // Scope.Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			cands = append(cands, named)
		}
	}
	return cands
}

// implMethod returns c's implementation of the interface method m when
// c (by value or pointer receiver) implements iface, and nil otherwise.
func implMethod(c types.Type, iface *types.Interface, m *types.Func) *types.Func {
	if !types.Implements(c, iface) && !types.Implements(types.NewPointer(c), iface) {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(c, true, m.Pkg(), m.Name())
	impl, _ := obj.(*types.Func)
	return impl
}

// computeWallFrom seeds each node with its own minimal wall-clock read
// and propagates the minimum witness backwards over edges to a fixed
// point. Min-witness propagation is a monotone meet, so the result is
// independent of iteration order.
func (g *callGraph) computeWallFrom(m *Module) {
	g.wallFrom = make(map[*types.Func]wallWitness)
	improve := func(fn *types.Func, w wallWitness) bool {
		cur, ok := g.wallFrom[fn]
		if !ok || lessWitness(w, cur) {
			g.wallFrom[fn] = w
			return true
		}
		return false
	}
	for _, n := range g.order {
		for _, s := range n.wall {
			file, line := m.relFile(s.pos)
			improve(n.obj, wallWitness{name: s.name, file: file, line: line})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			for _, e := range n.edges {
				if w, ok := g.wallFrom[e.callee]; ok && improve(n.obj, w) {
					changed = true
				}
			}
		}
	}
}

// computeAckFrom walks the graph forward from every //lint:ack-path root
// (breadth-first, roots in declaration order) and records, for each
// reachable function, the root that reached it first.
func (g *callGraph) computeAckFrom() {
	g.ackFrom = make(map[*types.Func]*funcNode)
	var queue []*funcNode
	for _, n := range g.order {
		if n.ack != "" {
			g.ackFrom[n.obj] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := g.ackFrom[n.obj]
		for _, e := range n.edges {
			cn := g.nodes[e.callee]
			if cn == nil {
				continue
			}
			if _, ok := g.ackFrom[cn.obj]; ok {
				continue
			}
			g.ackFrom[cn.obj] = root
			queue = append(queue, cn)
		}
	}
}

// funcsIn returns the graph nodes belonging to package p, in build
// (file, decl) order.
func (g *callGraph) funcsIn(p *Package) []*funcNode {
	var out []*funcNode
	for _, n := range g.order {
		if n.pkg == p {
			out = append(out, n)
		}
	}
	return out
}

// funcDisplay renders a function for finding messages: "Type.Name" for
// methods, plain "Name" otherwise.
func funcDisplay(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// recvTypeName returns the name of a method's receiver type, or "" for
// plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
