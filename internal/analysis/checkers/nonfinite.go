package checkers

import (
	"go/ast"
	"regexp"

	"wmsketch/internal/analysis"
)

// NonFinite polices ingest boundaries: a function that reads, decodes,
// parses, restores, or unmarshals external data and materializes float64s
// from raw bits (math.Float64frombits) or text (strconv.ParseFloat) must
// check finiteness somewhere in its body — a NaN smuggled into sketch
// state poisons every estimate it touches, and NaN compares false against
// every bound so range checks do not catch it. Binary decoders get the
// check from internal/frame (Cursor.F64, Cursor.F64s, ReadF64s, Finite).
var NonFinite = &analysis.Analyzer{
	Name: "nonfinite",
	Doc: "flags decode/parse/restore functions that produce float64s from raw bits " +
		"or text without a NaN/Inf check: call math.IsNaN/IsInf or a validator " +
		"(frame.Finite/validate.../checkFinite) before the value escapes.",
	Run: runNonFinite,
}

var (
	ingestFuncRe  = regexp.MustCompile(`(?i)(read|decode|parse|restore|unmarshal)`)
	validatorRe   = regexp.MustCompile(`(?i)(valid|finite|isbad|check)`)
	floatSourceRe = regexp.MustCompile(`^(Float64frombits|Float32frombits|ParseFloat)$`)
)

func runNonFinite(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !ingestFuncRe.MatchString(fn.Name.Name) {
				continue
			}
			checkNonFinite(pass, fn)
		}
	}
	return nil
}

func checkNonFinite(pass *analysis.Pass, fn *ast.FuncDecl) {
	// A finiteness check anywhere in the body clears the function: either a
	// direct math.IsNaN/IsInf, or delegation to a validator by name.
	checked := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name == "IsNaN" || name == "IsInf" || validatorRe.MatchString(name) {
			checked = true
			return false
		}
		return true
	})
	if checked {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := calleeName(call); floatSourceRe.MatchString(name) {
			pass.Reportf(call.Pos(),
				"%s crosses an ingest boundary in %s with no NaN/Inf check in scope — validate finiteness before the value escapes", name, fn.Name.Name)
		}
		return true
	})
}
