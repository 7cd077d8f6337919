package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// checkUnreachable reports every named function or method in an
// internal/ package that no entry point of the module reaches over the
// call graph. The roots are:
//
//   - main of every main package under cmd/, examples/ and perfbench/
//     (perfbench is a separate, frozen module, so what it calls stays);
//   - every init function;
//   - the root package's exported functions, and the exported methods
//     (promoted ones included) of every type it declares or re-exports
//     by alias;
//   - every function referenced from a package-level var or const
//     initializer, such as a registry table of function values;
//   - every method implementing a method of an exported interface from
//     a stdlib package the module imports (plus the predeclared error),
//     because the stdlib calls those — fmt.Stringer, sort.Interface,
//     heap.Interface, types.Importer and the like.
//
// Test files are not part of the graph, so a function only tests call
// is unreachable too. An intended test seam says so with
// //lint:ignore unreachable <the test that needs it>.
func checkUnreachable(m *Module, p *Package) []Finding {
	if !strings.HasPrefix(p.Rel, "internal/") {
		return nil
	}
	g, err := m.graph()
	if err != nil || g == nil {
		return nil
	}
	reached := g.reachable(m)
	var out []Finding
	for _, n := range g.funcsIn(p) {
		if reached[n.obj] {
			continue
		}
		file, line := m.relFile(n.obj.Pos())
		out = append(out, Finding{File: file, Line: line, Check: "unreachable",
			Message: fmt.Sprintf("%s is reached from no entry point (main, init, root-package API, package-level initializer, or stdlib interface); delete it, or mark a test seam with //lint:ignore unreachable <test>", funcDisplay(n.obj))})
	}
	return out
}

// reachable computes (once) the set of functions reachable from the
// unreachable check's roots.
func (g *callGraph) reachable(m *Module) map[*types.Func]bool {
	if g.reached != nil {
		return g.reached
	}
	g.reached = make(map[*types.Func]bool)
	var queue []*funcNode
	visit := func(fn *types.Func) {
		if n := g.nodes[fn]; n != nil && !g.reached[fn] {
			g.reached[fn] = true
			queue = append(queue, n)
		}
	}
	for _, n := range g.order {
		if isEntryPoint(n) {
			visit(n.obj)
		}
	}
	for _, n := range g.inits {
		for _, e := range n.edges {
			visit(e.callee)
		}
	}
	for _, fn := range publicMethods(g.pkgs) {
		visit(fn)
	}
	for _, fn := range stdlibImpls(m, g.pkgs) {
		visit(fn)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			visit(e.callee)
		}
	}
	return g.reached
}

// isEntryPoint reports whether n is a main under cmd/, examples/ or
// perfbench/, an init function, or an exported root-package function.
func isEntryPoint(n *funcNode) bool {
	if recvTypeName(n.obj) != "" {
		return false
	}
	switch {
	case n.obj.Name() == "init":
		return true
	case n.pkg.Rel == ".":
		return n.obj.Exported()
	case n.obj.Name() == "main" && n.pkg.Types.Name() == "main":
		for _, dir := range []string{"cmd/", "examples/", "perfbench"} {
			if strings.HasPrefix(n.pkg.Rel, dir) {
				return true
			}
		}
	}
	return false
}

// publicMethods returns the exported methods of every exported type in
// the root package's scope, aliases of internal types included.
func publicMethods(pkgs []*Package) []*types.Func {
	var out []*types.Func
	for _, p := range pkgs {
		if p.Rel != "." {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
					out = append(out, fn)
				}
			}
		}
	}
	return out
}

// stdlibImpls returns the module methods that implement a method of an
// exported interface declared by a stdlib package some module package
// imports, or of the predeclared error interface.
func stdlibImpls(m *Module, pkgs []*Package) []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if _, local := m.relOf(imp.Path()); local || seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	var out []*types.Func
	for _, c := range moduleTypes(pkgs) {
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				if impl := implMethod(c, iface, iface.Method(i)); impl != nil {
					out = append(out, impl)
				}
			}
		}
	}
	return out
}
