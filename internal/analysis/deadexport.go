package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport reports exported identifiers under internal/ that no
// non-test file of the loaded module references: API that only tests
// call, which keeps code alive that no program runs. It is a
// whole-program check: Facts collects every non-test reference of the
// load, and each pass reports its own package's declarations that are
// missing from it. A method counts as used when its name and signature
// match a method of any interface type in a loaded or imported package
// (interface literals included), since a call through the interface
// never names the concrete method; interfaces that test files declare
// do not count, since no program calls through them. A deliberate
// cross-package test fixture or a paper object no program calls carries
// a justified //lint:deadexport.
var DeadExport = &Analyzer{
	Name:     "deadexport",
	Doc:      "flags exported identifiers and methods declared under internal/ that no non-test file of the module references; delete them, move them into the test that uses them, or justify with //lint:deadexport",
	Suppress: "deadexport",
	Facts:    collectExportUses,
	Run:      runDeadExport,
}

// exportKey names a package-level object or a method across units. Each
// unit is type-checked on its own, so one declaration is a different
// types.Object in every unit that imports it; its path, receiver type
// name and name are the same everywhere.
type exportKey struct{ pkg, recv, name string }

// exportUses is what deadexport learns from the whole load.
type exportUses struct {
	used map[exportKey]bool
	// ifaceMethods holds the methodKey of every interface method.
	ifaceMethods map[string]bool
}

// errorsMethods are the methods the errors package calls through
// interface literals inside its function bodies, which export data does
// not carry: Is, As and Unwrap are reached by errors.Is and errors.As.
var errorsMethods = []string{"Is(error)(bool)", "As(any)(bool)", "Unwrap()(error)", "Unwrap()([]error)"}

func collectExportUses(units []*Unit) any {
	u := &exportUses{used: map[exportKey]bool{}, ifaceMethods: map[string]bool{}}
	for _, m := range errorsMethods {
		u.ifaceMethods[m] = true
	}
	u.addInterface(types.Universe.Lookup("error").Type())
	scanned := map[string]bool{}
	var scan func(fset *token.FileSet, p *types.Package)
	scan = func(fset *token.FileSet, p *types.Package) {
		if p == nil || scanned[p.Path()] {
			return
		}
		scanned[p.Path()] = true
		for _, name := range p.Scope().Names() {
			// A unit's scope holds the types its in-package test files
			// declare too.
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isTestPos(fset, tn.Pos()) {
				u.addInterface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(fset, imp)
		}
	}
	for _, unit := range units {
		scan(unit.Fset, unit.Pkg)
		for _, f := range unit.Files {
			test := isTestFile(unit.Fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if !test {
						u.addInterface(unit.Info.TypeOf(n))
					}
				case *ast.Ident:
					if obj := unit.Info.Uses[n]; obj != nil && !test {
						if k, ok := exportKeyOf(obj); ok {
							u.used[k] = true
						}
					}
				}
				return true
			})
		}
	}
	return u
}

// addInterface records the methods of t when t is an interface.
func (u *exportUses) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		u.ifaceMethods[methodKey(it.Method(i))] = true
	}
}

func (u *exportUses) isUsed(obj types.Object) bool {
	k, ok := exportKeyOf(obj)
	if !ok || u.used[k] {
		return true
	}
	return k.recv != "" && u.ifaceMethods[methodKey(obj.(*types.Func))]
}

// methodKey spells a method's name and signature as Name(params)(results)
// without parameter names, which an implementation is free to change.
func methodKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	tuple := func(t *types.Tuple) string {
		s := make([]string, t.Len())
		for i := range s {
			s[i] = types.TypeString(t.At(i).Type(), nil)
		}
		return "(" + strings.Join(s, ",") + ")"
	}
	k := m.Name() + tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		k += "..."
	}
	return k
}

// exportKeyOf keys a package-level object or a method; fields and local
// objects have no key.
func exportKeyOf(obj types.Object) (exportKey, bool) {
	if obj.Pkg() == nil {
		return exportKey{}, false
	}
	k := exportKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				k.recv = n.Obj().Name()
				return k, true
			}
			return exportKey{}, false
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return exportKey{}, false
	}
	return k, true
}

func runDeadExport(pass *Pass) error {
	if !strings.Contains(pass.Path, "/internal/") {
		return nil
	}
	uses := pass.Facts.(*exportUses)
	check := func(id *ast.Ident) {
		obj := pass.Info.Defs[id]
		if !id.IsExported() || obj == nil || uses.isUsed(obj) {
			return
		}
		name := id.Name
		if k, _ := exportKeyOf(obj); k.recv != "" {
			name = k.recv + "." + name
		}
		pass.Reportf(id.Pos(), "exported %s is referenced by no non-test code: delete it, move it into the test that uses it, or justify keeping it with //lint:deadexport", name)
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id)
						}
					}
				}
			}
		}
	}
	return nil
}

func isTestFile(fset *token.FileSet, f *ast.File) bool { return isTestPos(fset, f.Pos()) }

func isTestPos(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
