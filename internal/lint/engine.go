package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"npdbench/internal/obs"
)

// Pass is one analysis in the ordered catalog. Run receives a fully typed
// package and reports findings through the context; the engine owns
// ordering, suppression, and severity bookkeeping.
type Pass struct {
	Name string
	Doc  string
	Sev  Severity
	Run  func(*Context)
}

// Context is the per-(pass, package) view handed to a pass: the syntax and
// type information of the package under analysis plus the resolved
// annotations. Interp carries the module-wide interprocedural facts (call
// graph, per-function summaries, merged annotations); it is nil under
// RunIntra, and every pass degrades to its intra-procedural behavior when
// it is.
type Context struct {
	Fset   *token.FileSet
	Pkg    *Package
	Ann    *annotations
	Interp *Interp

	pass  *Pass
	diags *[]Diagnostic
}

// Report files a diagnostic at the given node.
func (c *Context) Report(n ast.Node, msg string) {
	*c.diags = append(*c.diags, Diagnostic{
		Pass: c.pass.Name,
		Sev:  c.pass.Sev,
		Pos:  c.Fset.Position(n.Pos()),
		Msg:  msg,
	})
}

// TypeOf resolves the static type of an expression (nil when untyped).
func (c *Context) TypeOf(e ast.Expr) types.Type {
	return c.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (use or def).
func (c *Context) ObjectOf(id *ast.Ident) types.Object {
	return c.Pkg.Info.ObjectOf(id)
}

// Catalog returns the ordered pass catalog. Order is part of the contract:
// output is deterministic, and the report groups per file/line across
// passes after the final sort.
func Catalog() []*Pass {
	return []*Pass{
		passSharedMut(),
		passLockGuard(),
		passAtomicMix(),
		passGoHygiene(),
		passIterClose(),
		passDiscardErr(),
		passTimingFunnel(),
		passSrvHygiene(),
		passStopFlow(),
	}
}

// PassByName returns the catalog entry with the given name (nil if absent).
func PassByName(name string) *Pass {
	for _, p := range Catalog() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Run executes the catalog over every package of the module and folds the
// results into a report: the call graph and bottom-up summaries are built
// first (each phase individually timed for the ci budget), then every pass
// runs per package with the interprocedural context attached; diagnostics
// matched by an ignore directive move to the suppressed list and everything
// is sorted canonically.
func Run(mod *Module, passes []*Pass) *Report {
	return run(mod, passes, true)
}

// RunIntra executes the catalog without the interprocedural layer — the
// PR 6 engine, verbatim. It exists so regression tests can prove which
// findings only the interprocedural engine sees.
func RunIntra(mod *Module, passes []*Pass) *Report {
	return run(mod, passes, false)
}

func run(mod *Module, passes []*Pass, interp bool) *Report {
	rep := &Report{Packages: len(mod.Pkgs)}
	anns := map[*Package]*annotations{}
	var annList []*annotations
	for _, pkg := range mod.Pkgs {
		a := annotate(mod.Fset, pkg)
		anns[pkg] = a
		annList = append(annList, a)
	}
	var ip *Interp
	if interp {
		cgStart := obs.Now()
		g := buildCallGraph(mod)
		rep.CallgraphTime = obs.Since(cgStart)
		sumStart := obs.Now()
		ip = buildInterp(mod, annList, g)
		rep.SummaryTime = obs.Since(sumStart)
	}
	start := obs.Now()
	for _, pkg := range mod.Pkgs {
		rep.Files += len(pkg.Files)
		ann := anns[pkg]
		var diags []Diagnostic
		for _, p := range passes {
			ctx := &Context{Fset: mod.Fset, Pkg: pkg, Ann: ann, Interp: ip, pass: p, diags: &diags}
			p.Run(ctx)
		}
		for _, d := range diags {
			if ss := ann.suppressionsFor(d); len(ss) > 0 {
				for _, s := range ss {
					s.Used = true
				}
				rep.Suppressed = append(rep.Suppressed, d)
				continue
			}
			rep.Diags = append(rep.Diags, d)
		}
		for _, s := range ann.allSuppressions() {
			rep.Suppressions = append(rep.Suppressions, *s)
		}
	}
	for i := range rep.Diags {
		rep.Diags[i].Pos.Filename = relPath(mod.Root, rep.Diags[i].Pos.Filename)
	}
	for i := range rep.Suppressed {
		rep.Suppressed[i].Pos.Filename = relPath(mod.Root, rep.Suppressed[i].Pos.Filename)
	}
	for i := range rep.Suppressions {
		rep.Suppressions[i].Pos.Filename = relPath(mod.Root, rep.Suppressions[i].Pos.Filename)
	}
	sortDiags(rep.Diags)
	rep.Diags = dedupeDiags(rep.Diags)
	sortDiags(rep.Suppressed)
	sortSuppressions(rep.Suppressions)
	rep.PassTime = obs.Since(start)
	return rep
}

// dedupeDiags drops exact duplicates from a sorted diagnostic list. An
// interprocedural pass run from two packages can reach — and report — the
// same callee site twice; one finding is enough.
func dedupeDiags(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 {
			p := ds[i-1]
			if p.Pass == d.Pass && p.Pos == d.Pos && p.Msg == d.Msg {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// relPath renders a file name relative to the module root, so reports are
// stable across checkouts and diffable against a committed golden.
func relPath(root, name string) string {
	rel, err := filepath.Rel(root, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return filepath.ToSlash(rel)
}

func sortSuppressions(ss []Suppression) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
}
