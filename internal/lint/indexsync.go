package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkIndexSync enforces the DESIGN.md §10 guarded-field rule: struct
// fields whose consistency depends on one canonical writer (the extent
// allocator's water-marks, for instance) may only be written by the
// helpers declared for them, so the bookkeeping those helpers perform
// can never be skipped. The protected fields and their writers
// are declared next to the data with //lint:guarded-by (grammar in
// guard.go); any assignment, compound assignment, or ++/-- targeting a
// guarded field from a function not on the guard list is a finding.
// Writes inside function literals are attributed to the enclosing named
// function. Composite-literal construction is deliberately out of
// scope: constructors initialize state before any index exists.
func checkIndexSync(m *Module, p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owner, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				var targets []ast.Expr
				switch st := node.(type) {
				case *ast.AssignStmt:
					targets = st.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{st.X}
				default:
					return true
				}
				for _, lhs := range targets {
					out = append(out, guardedWrite(m, p, owner, lhs)...)
				}
				return true
			})
		}
	}
	return out
}

// guardedWrite reports a finding when lhs writes a //lint:guarded-by
// field and the writing function is not on the field's guard list.
func guardedWrite(m *Module, p *Package, owner *types.Func, lhs ast.Expr) []Finding {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	guards := m.fieldGuards(v)
	if guards == nil || guardMatches(owner, guards) {
		return nil
	}
	file, line := m.relFile(sel.Sel.Pos())
	return []Finding{{File: file, Line: line, Check: "indexsync",
		Message: fmt.Sprintf("%s writes %s.%s outside its guards; //lint:guarded-by restricts writes to %s (DESIGN.md §10)",
			funcDisplay(owner), recvStructName(p, sel, v), v.Name(), guardNames(guards))}}
}

// guardMatches reports whether the writing function is one of the
// declared guards: a bare guard name matches a function or method of
// that name on any receiver, a Type.name guard matches only that
// receiver type's method.
func guardMatches(owner *types.Func, guards []GuardRef) bool {
	recv := recvTypeName(owner)
	for _, g := range guards {
		if g.Name != owner.Name() {
			continue
		}
		if g.Recv == "" || g.Recv == recv {
			return true
		}
	}
	return false
}

// recvStructName names the struct a written field belongs to, for
// messages: the named type of the selector's receiver expression, or the
// defining package name as a fallback when type information is partial.
func recvStructName(p *Package, sel *ast.SelectorExpr, v *types.Var) string {
	t := p.Info.TypeOf(sel.X)
	for t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		break
	}
	if v.Pkg() != nil {
		return v.Pkg().Name()
	}
	return "?"
}
