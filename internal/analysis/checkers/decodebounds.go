package checkers

import (
	"go/ast"
	"go/types"
	"regexp"

	"wmsketch/internal/analysis"
)

// DecodeBounds performs an intra-function taint walk over decode paths:
// integers produced by varint/fixed-width reads from a wire buffer are
// attacker-controlled, and must be bounded before they size an allocation
// or slice a buffer. A `make([]T, n)` where n is a decoded, unvalidated
// count is a remote allocation bomb; an unvalidated slice bound is a
// panic.
//
// Sources: binary.ReadUvarint, binary.ReadVarint, binary.LittleEndian /
// BigEndian .Uint16/32/64, and local helpers matching (?i)uvarint.
// Sanitizers: using the value in a relational comparison, or passing it
// through a function whose name matches (?i)(cap|clamp|bound|limit|min|count)
// — internal/frame's Cursor.Count, ReadCount and UpfrontCap, which every
// decoder in the repository shares, are the canonical form.
// Sinks: make sizes and slice-expression bounds.
var DecodeBounds = &analysis.Analyzer{
	Name: "decodebounds",
	Doc: "flags make() sizes and slice bounds that flow from decoded wire integers " +
		"without a preceding bound check: validate against a cap (frame.Cursor.Count/frame.UpfrontCap) " +
		"before allocating or slicing.",
	Run: runDecodeBounds,
}

var (
	endianSizes = map[string]bool{"Uint16": true, "Uint32": true, "Uint64": true}
	varintReads = map[string]bool{"ReadUvarint": true, "ReadVarint": true}
	sourceRe    = regexp.MustCompile(`(?i)uvarint`)
	sanitizerRe = regexp.MustCompile(`(?i)(cap|clamp|bound|limit|min|count)`)
)

func runDecodeBounds(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDecodeFunc(pass, fn)
		}
	}
	return nil
}

// checkDecodeFunc runs the taint walk over one function body.
func checkDecodeFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)

	// Taint propagation to a fixed point: a source call taints its
	// assignment targets; any assignment whose RHS mentions a tainted
	// object taints its targets too (conversions, arithmetic).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) == 0 {
				return true
			}
			dirty := false
			for _, rhs := range assign.Rhs {
				if isDecodeSource(pass, rhs) || mentionsTainted(pass, rhs, tainted) {
					dirty = true
				}
			}
			if !dirty {
				return true
			}
			for _, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	if len(tainted) == 0 {
		return
	}

	// Sanitizers: a relational comparison involving the object, or passing
	// it to a bounding helper, clears its taint for the whole function.
	// (Position-insensitive by design: the analyzer asks "was this value
	// ever checked", not "was it checked first" — cheap, and in practice
	// decode helpers validate immediately.)
	sanitized := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.BinaryExpr:
			if m.Op.IsOperator() && isComparison(m) {
				for _, obj := range identObjs(pass.TypesInfo, m) {
					if tainted[obj] {
						sanitized[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if sanitizerRe.MatchString(calleeName(m)) {
				for _, arg := range m.Args {
					for _, obj := range identObjs(pass.TypesInfo, arg) {
						if tainted[obj] {
							sanitized[obj] = true
						}
					}
				}
			}
		}
		return true
	})

	hot := func(e ast.Expr) (types.Object, bool) {
		for _, obj := range identObjs(pass.TypesInfo, e) {
			if tainted[obj] && !sanitized[obj] {
				return obj, true
			}
		}
		return nil, false
	}

	// Sinks.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(pass, id) {
				for _, arg := range m.Args[1:] {
					if obj, bad := hot(arg); bad {
						pass.Reportf(m.Pos(),
							"make sized by decoded value %s with no bound check before allocation — cap it first (frame.Cursor.Count/frame.UpfrontCap)", obj.Name())
					}
				}
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{m.Low, m.High, m.Max} {
				if bound == nil {
					continue
				}
				if obj, bad := hot(bound); bad {
					pass.Reportf(m.Pos(),
						"slice bound from decoded value %s with no preceding length check — validate against len/cap first", obj.Name())
				}
			}
		}
		return true
	})
}

// isDecodeSource reports whether e is a call producing an
// attacker-controlled integer from a wire buffer.
func isDecodeSource(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if _, ok := isPkgSelector(pass.TypesInfo, call.Fun, "encoding/binary", varintReads); ok {
		return true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && endianSizes[sel.Sel.Name] {
		// binary.LittleEndian.Uint32 / binary.BigEndian.Uint64: check the
		// receiver is the binary package's byte-order value.
		if t := pass.TypeOf(sel.X); t != nil {
			if named, ok := t.(*types.Named); ok {
				if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "encoding/binary" {
					return true
				}
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && sourceRe.MatchString(id.Name) {
		return true
	}
	return false
}

func mentionsTainted(pass *analysis.Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	for _, obj := range identObjs(pass.TypesInfo, e) {
		if tainted[obj] {
			return true
		}
	}
	return false
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isComparison(b *ast.BinaryExpr) bool {
	switch b.Op.String() {
	case "<", ">", "<=", ">=", "==", "!=":
		return true
	}
	return false
}
