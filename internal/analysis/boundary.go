package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// allowedRootImports are the only internal packages the front end may
// import: the byte-code and tensor data model the public API is built
// from, the rewrite options surfaced through Config, the backend seam
// itself, and internal/vm under the selector allowlist below.
var allowedRootImports = map[string]bool{
	"internal/backend":  true,
	"internal/bytecode": true,
	"internal/tensor":   true,
	"internal/rewrite":  true,
	"internal/vm":       true,
}

// allowedVMSelectors is the engine-level surface of internal/vm the front
// end may touch: configuration knobs the Runtime translates into
// backend.Config, the shared Engine it owns and hands to backend.Open,
// and the Stats snapshot Context.Stats republishes.
var allowedVMSelectors = map[string]bool{
	"Config":       true,
	"Engine":       true,
	"EngineConfig": true,
	"NewEngine":    true,
	"Stats":        true,
}

// Boundary is the import-boundary check from the pluggable-backend
// refactor, promoted from a root-package test into an analyzer: the
// front-end package records byte-code and hands batches to a
// backend.Backend — it must never reach past that seam into the VM's
// execution machinery. Compiling or executing through vm.Machine or
// vm.Plan directly would bypass the Resolver's plan path and the
// Backend's async pipeline.
var Boundary = &Analyzer{
	Name:  "boundary",
	Doc:   "the front-end (module root) package stays behind the backend seam: allowlisted internal imports, engine-surface-only use of vm",
	Scope: []string{""},
	Run:   runBoundary,
}

func runBoundary(pass *Pass) {
	info := pass.Pkg.Info
	internalPrefix := pass.Module.Path + "/"
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			rel, ok := strings.CutPrefix(path, internalPrefix)
			if !ok || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			if !allowedRootImports[rel] {
				pass.Reportf(imp.Pos(), "import %s crosses the backend seam", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := info.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != pass.Module.Path+"/internal/vm" {
				return true
			}
			if !allowedVMSelectors[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"vm.%s reaches past the backend seam (allowed: config/engine/stats surface only)", sel.Sel.Name)
			}
			return true
		})
	}
}
