// Package ctxflow implements the pynamic-lint analyzer that keeps
// cancellation plumbed end to end. The engine's contract is that a
// caller's context reaches every blocking stage; that breaks when an
// intermediate function minting context.Background() severs the chain,
// or when a ctx-carrying function calls the non-ctx convenience
// variant of an API that has a *Ctx sibling. Two rules:
//
//  1. context.Background() and context.TODO() are forbidden outside
//     package main and test files. A deliberate root, such as a
//     server-lifetime base context, opts out with
//     //pynamic:allow ctxflow <reason>.
//  2. Inside a function that has a context.Context parameter, calling
//     Foo when a sibling FooCtx(ctx, ...) exists (same receiver type
//     or same package) drops the caller's context on the floor; call
//     the Ctx variant.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbids context.Background/TODO outside package main and flags " +
		"calls that drop a live ctx when a *Ctx sibling exists",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	pass.EachFunc(func(file *ast.File, fd *ast.FuncDecl) {
		if fd.Body == nil || pass.IsTestFile(file) {
			return
		}
		hasCtx := funcHasCtxParam(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isMain {
				checkBackground(pass, file, fd, call)
			}
			if hasCtx {
				checkDroppedCtx(pass, file, fd, call)
			}
			return true
		})
	})
	return nil
}

// funcHasCtxParam reports whether fd declares a context.Context
// parameter.
func funcHasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypeOf(field.Type); t != nil && analysis.IsContext(t) {
			return true
		}
	}
	return false
}

// checkBackground flags context.Background/TODO (rule 1).
func checkBackground(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl, call *ast.CallExpr) {
	pkg, name := pass.PkgFunc(call)
	if pkg != "context" || (name != "Background" && name != "TODO") {
		return
	}
	if pass.OptedOut(file, fd, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s outside package main severs the cancellation chain: "+
			"accept a ctx parameter instead (deliberate roots annotate "+
			"//pynamic:allow ctxflow <reason>)", name)
}

// checkDroppedCtx flags calls to Foo when FooCtx exists (rule 2).
func checkDroppedCtx(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl, call *ast.CallExpr) {
	// A callee that already takes a context keeps the chain intact.
	if sig := pass.CalleeSig(call); sig == nil || takesContext(sig) {
		return
	}
	name, sibling := ctxSibling(pass, call)
	if sibling == nil {
		return
	}
	if pass.OptedOut(file, fd, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s drops this function's ctx: the %sCtx variant exists "+
			"and threads cancellation through", name, name)
}

// takesContext reports whether any parameter of sig is a
// context.Context.
func takesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if analysis.IsContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxSibling resolves call's callee and looks for a <name>Ctx sibling
// that accepts a context: a method on the same receiver type, or a
// function in the same package. Returns the plain name and the
// sibling, or ("", nil).
func ctxSibling(pass *analysis.Pass, call *ast.CallExpr) (string, *types.Func) {
	if m := pass.Method(call); m != nil {
		if strings.HasSuffix(m.Name(), "Ctx") {
			return "", nil
		}
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			return "", nil
		}
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, m.Pkg(), m.Name()+"Ctx")
		if fn, ok := obj.(*types.Func); ok && takesContext(fn.Type().(*types.Signature)) {
			return m.Name(), fn
		}
		return "", nil
	}
	pkgPath, name := pass.PkgFunc(call)
	if pkgPath == "" || strings.HasSuffix(name, "Ctx") {
		return "", nil
	}
	scope := funcScope(pass, pkgPath)
	if scope == nil {
		return "", nil
	}
	if fn, ok := scope.Lookup(name + "Ctx").(*types.Func); ok &&
		takesContext(fn.Type().(*types.Signature)) {
		return name, fn
	}
	return "", nil
}

// funcScope returns the package scope holding pkgPath's declarations —
// the pass's own package or one of its direct imports.
func funcScope(pass *analysis.Pass, pkgPath string) *types.Scope {
	if pkgPath == pass.Pkg.Path() {
		return pass.Pkg.Scope()
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == pkgPath {
			return imp.Scope()
		}
	}
	return nil
}
