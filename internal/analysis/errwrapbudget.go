package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ErrWrapBudget keeps error chains matchable across layers: budget trips
// (match.ErrBudgetExceeded, *engine.BudgetError) and stream I/O failures
// (*stream.ReadError) are classified with errors.Is/errors.As at the
// facade, the serving layer and in CLI exit codes, so any
// fmt.Errorf that re-formats an error with %v/%s instead of wrapping it
// with %w silently severs that chain. The analyzer flags every
// error-typed argument formatted with a non-wrapping verb (%T — printing
// the type — is exempt). Deliberate chain breaks carry //lint:nowrap.
var ErrWrapBudget = &Analyzer{
	Name:     "errwrapbudget",
	Doc:      "flags fmt.Errorf calls that format an error value with %v/%s instead of wrapping with %w, which breaks errors.Is(err, ErrBudgetExceeded) and *stream.ReadError matching across layers; justify with //lint:nowrap",
	Suppress: "nowrap",
	Run:      runErrWrapBudget,
}

func runErrWrapBudget(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isFmtErrorf(pass, call) || len(call.Args) < 2 || call.Ellipsis.IsValid() {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind.String() != "STRING" {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs, ok := formatVerbs(format)
			if !ok {
				return true // explicit argument indexes etc.: stay silent
			}
			for i, verb := range verbs {
				argIdx := 1 + i
				if argIdx >= len(call.Args) {
					break // arity mismatch is vet's problem
				}
				if verb == 'w' || verb == 'T' || verb == '*' {
					continue
				}
				t := pass.TypeOf(call.Args[argIdx])
				if t == nil || !isErrorType(t) {
					continue
				}
				pass.Reportf(call.Args[argIdx].Pos(), "error formatted with %%%c loses the chain: errors.Is/As matching (budget trips, stream read errors) stops working downstream; wrap with %%w or justify with //lint:nowrap", verb)
			}
			return true
		})
	}
	return nil
}

// isFmtErrorf reports whether call is fmt.Errorf.
func isFmtErrorf(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	obj := pass.objectOf(sel.Sel)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt"
}

// isErrorType reports whether t is assignable to the error interface.
func isErrorType(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type()
	return types.AssignableTo(t, errType)
}

// formatVerbs scans a printf format string and returns one entry per
// argument the format consumes, in order: the verb letter for normal
// operands and '*' for width/precision stars. It bails out (ok=false)
// on explicit argument indexes (%[1]v), whose mapping is not positional.
func formatVerbs(format string) (verbs []rune, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
	scan:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '[':
				return nil, false
			case c == '*':
				verbs = append(verbs, '*')
			case c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9'):
				// flags, width, precision: keep scanning
			case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
				verbs = append(verbs, rune(c))
				break scan
			default:
				// Unrecognized character: treat as the end of this verb.
				break scan
			}
		}
	}
	return verbs, true
}
