// Package analysis is ampsched's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis model (Analyzer, Pass, Diagnostic) plus the six
// project-specific analyzers run by `make lint` via cmd/ampvet.
//
// The syntactic three turn the simulator's load-bearing invariants —
// bit-reproducible runs under a seed, and an allocation-free per-cycle
// hot path — from comments and one benchmark into compile-time checks:
//
//   - determinism:  no wall clocks, no global math/rand, no map
//     iteration in simulation-core packages; randomness must flow
//     through internal/rng and time through an injected clock.
//   - hotpathalloc: functions annotated //ampvet:hotpath must avoid
//     allocation-forcing constructs (fmt calls, interface boxing,
//     capturing closures, append in loops, defer in loops).
//   - obserrcheck:  errors from amp.NewSystem / Run / RunContext, the
//     experiments runner entry points and telemetry/trace sink
//     Close/Flush must not be silently discarded.
//
// The dataflow-aware three share a run-wide function-summary/
// call-graph layer (summary.go) built once over every loaded package:
//
//   - lockcheck: no mutex held across a blocking operation (channel
//     ops, selects, file/net I/O, transitively-blocking calls), no
//     inconsistent lock acquisition order, no lock copied by value.
//   - unitcheck: dimensional analysis over //ampvet:unit tags for the
//     paper's quantities (cycles, instructions, nanojoules, watts,
//     IPC, IPC/Watt): cross-unit arithmetic and mismatched
//     assignments/returns/arguments are findings.
//   - ctxcheck:  context.Background/TODO banned outside package main;
//     a ctx-receiving function must thread its context to every
//     callee that accepts one.
//
// Audited exceptions are annotated in source:
//
//	//ampvet:allow <check> <reason>
//
// on the flagged line, the line above it, or in the doc comment of the
// enclosing function. The reason is mandatory: an allow without one is
// itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the upstream framework wholesale if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Sum is the run-wide summary layer (function facts, blocking
	// classification, unit tags). Read-only during analysis.
	Sum *Summaries

	dirs  *directiveIndex
	diags []Diagnostic
}

// A Diagnostic is one finding, positioned for editors.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
	// Package is the import path of the package the finding is in
	// (set by RunSuite; empty in single-package runs).
	Package string `json:"pkg,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Check, d.Message)
}

// Reportf records a finding unless an //ampvet:allow directive for
// this check covers pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.dirs.allowed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		HotPathAllocAnalyzer,
		ObsErrCheckAnalyzer,
		LockCheckAnalyzer,
		UnitCheckAnalyzer,
		CtxCheckAnalyzer,
	}
}

// ByName resolves a comma-separated check list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", n, checkNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func checkNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// RunAnalyzers applies the analyzers to one package in isolation,
// building a package-local summary layer. The analysistest harness
// and single-fixture tests use this; the driver uses RunSuite, whose
// summaries span the whole load.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runOne(pkg, analyzers, BuildSummaries([]*Package{pkg}))
}

// runOne applies the analyzers to one package under a given summary
// layer.
func runOne(pkg *Package, analyzers []*Analyzer, sum *Summaries) ([]Diagnostic, error) {
	dirs := indexDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	diags = append(diags, dirs.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Sum:      sum,
			dirs:     dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diags...)
	}
	sortDiags(diags)
	return diags, nil
}

// RunSuite applies the analyzers to every package of a load under one
// shared summary layer, fanning packages out across GOMAXPROCS.
// skip(pkg) lets the driver serve a package from its findings cache
// instead of analyzing it; results come back through the per-package
// callback (called from multiple goroutines) and the merged, sorted
// slice.
func RunSuite(pkgs []*Package, analyzers []*Analyzer, skip func(*Package) ([]Diagnostic, bool)) ([]Diagnostic, error) {
	sum := BuildSummaries(pkgs)
	var (
		mu    sync.Mutex
		diags []Diagnostic
		first error
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, pkg := range pkgs {
		if skip != nil {
			if cached, ok := skip(pkg); ok {
				stamped := make([]Diagnostic, len(cached))
				copy(stamped, cached)
				for i := range stamped {
					stamped[i].Package = pkg.Path
				}
				mu.Lock()
				diags = append(diags, stamped...)
				mu.Unlock()
				continue
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			got, err := runOne(pkg, analyzers, sum)
			for i := range got {
				got[i].Package = pkg.Path
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			diags = append(diags, got...)
		}(pkg)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	sortDiags(diags)
	return diags, nil
}

// sortDiags orders findings by position for stable output.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
}

// ---------------------------------------------------------------------
// Shared type-query helpers.

// pkgPathIs reports whether the object lives in a package whose import
// path is path or ends in "/"+path — suffix matching keeps the
// analyzers honest under analysistest fixtures, which mirror the real
// package layout under synthetic module paths.
func pkgPathIs(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

// calleeOf resolves the called function object, looking through
// parentheses and selectors. Returns nil for calls of function values
// and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// enclosingFunc returns the innermost function declaration containing
// pos, or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
