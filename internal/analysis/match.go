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

// ioReadMethods are the read primitives every store type exposes:
// Charge (the simulated I/O), Fetch (the bytes) and GetTracked (both).
var ioReadMethods = map[string]bool{"GetTracked": true, "Charge": true, "Fetch": true}

// ioReadCall reports whether call is a simulated node/blob read: one of
// ioReadMethods on a store type. The tree's node read
// (Snapshot.ReadSharedTracked) reaches them through its PerformsIO fact.
func ioReadCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	named, method, ok := methodCall(info, call)
	if !ok || !ioReadMethods[method] || !storeTypeNames[named.Obj().Name()] {
		return "", false
	}
	return named.Obj().Name() + "." + method, true
}
