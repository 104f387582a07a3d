package analysis

import (
	"go/ast"
	"go/types"
)

// The matchers below classify method calls by receiver type name +
// method name rather than by import path, so the same analyzers run
// both on the real packages and on the self-contained analysistest
// fixtures.

// methodCall resolves a call expression to (receiver named type, method
// name). It reports false for plain function calls and unresolved code.
func methodCall(info *types.Info, call *ast.CallExpr) (*types.Named, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil, "", false
	}
	return named, sel.Sel.Name, true
}

// storeTypeNames are the named types acting as blob stores.
var storeTypeNames = map[string]bool{"Store": true, "FileStore": true, "Blobs": true}

// ioReadCall reports whether call is a simulated node/blob read: a
// GetTracked on a store type, the one read primitive every store
// exposes. Tree reads (Snapshot.ReadNodeTracked, view parsing) reach it
// through their PerformsIO fact.
func ioReadCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	named, method, ok := methodCall(info, call)
	if !ok || method != "GetTracked" || !storeTypeNames[named.Obj().Name()] {
		return "", false
	}
	return named.Obj().Name() + ".GetTracked", true
}
