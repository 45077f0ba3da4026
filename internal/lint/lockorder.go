package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// LockOrderConfig ranks the mutexes whose acquisition order is part of the
// project contract. A goroutine may only acquire locks in ascending rank;
// taking a lock while holding one of higher rank — or re-taking a lock it
// already holds — is the deadlock shape the analyzer flags.
type LockOrderConfig struct {
	// Ranks maps lock keys (pkgpath.Type.field) to their position in the
	// global acquisition order; lower ranks are acquired first. A mutex
	// field of an analyzed package that has no rank is reported, and so is
	// a key that names no mutex field of the package it names.
	Ranks map[string]int
	// Acquires summarizes functions outside the analyzed package: a call to
	// the keyed function/method may acquire the listed locks while it runs.
	// This is how cross-package contracts are encoded — e.g. that
	// store.CompactNow takes the store's locks. A key that names no
	// function, or a listed lock with no rank, is reported when the key's
	// package is analyzed.
	Acquires map[string][]string
	// Packages restricts the analysis to these import paths; empty analyzes
	// every loaded package.
	Packages []string
}

// LockOrder builds the lockorder analyzer: within each analyzed package it
// first summarizes which ranked locks every function may acquire (directly,
// or transitively through same-package calls and the configured
// cross-package summaries), then walks each function in source order
// tracking the locks held at each point and flags any acquisition — direct
// Lock/RLock call, or a call into a function whose summary acquires — that
// runs while a later-ranked lock is held.
//
// The walk is deliberately conservative about control flow: branch, loop and
// select bodies are analyzed with a copy of the held set and their effects
// do not leak out, and function literals (goroutines, deferred closures)
// start from an empty held set. A deferred Unlock leaves its lock "held" for
// the rest of the function, which is exactly the truth the ordering cares
// about.
func LockOrder(cfg LockOrderConfig) *Analyzer {
	scope := map[string]bool{}
	for _, p := range cfg.Packages {
		scope[p] = true
	}
	return &Analyzer{
		Name: "lockorder",
		Doc:  "mutex acquisitions must follow the documented global rank order",
		Run: func(pass *Pass) {
			if len(scope) > 0 && !scope[pass.Path] {
				return
			}
			lo := &lockOrder{cfg: cfg, pass: pass}
			lo.run()
		},
	}
}

type lockOrder struct {
	cfg  LockOrderConfig
	pass *Pass

	// summaries: function key → set of ranked lock keys it may acquire.
	summaries map[string]map[string]bool
	// calls: function key → same-package functions it calls.
	calls map[string][]string
}

func (lo *lockOrder) run() {
	lo.checkConfig()
	lo.buildSummaries()
	for _, f := range lo.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lo.checkFunc(fd)
		}
	}
}

// checkConfig reports the drift that would otherwise blind the analyzer
// silently: a mutex field of one of this package's named types with no rank,
// a Ranks or Acquires key under this package's path that names no mutex
// field or no function, and an Acquires entry listing an unranked lock. A
// stale key has no source line of its own: it is reported at the package
// clause.
func (lo *lockOrder) checkConfig() {
	pkg := lo.pass.Package
	scope := pkg.Types.Scope()
	for _, typeName := range scope.Names() {
		tn, ok := scope.Lookup(typeName).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for fld := range st.Fields() {
			if !isMutex(fld.Type()) {
				continue
			}
			key := pkg.Path + "." + typeName + "." + fld.Name()
			if fld.Embedded() {
				lo.pass.Reportf(fld.Pos(), "embedded mutex in %s cannot be ranked; give the field a name", typeName)
			} else if _, ranked := lo.cfg.Ranks[key]; !ranked {
				lo.pass.Reportf(fld.Pos(), "mutex %s has no rank in the lock order", key)
			}
		}
	}
	clause := pkg.Files[0].Package
	for _, key := range slices.Sorted(maps.Keys(lo.cfg.Ranks)) {
		name, ok := strings.CutPrefix(key, pkg.Path+".")
		if !ok {
			continue
		}
		if v, ok := lookupMember(pkg.Types, name).(*types.Var); !ok || !isMutex(v.Type()) {
			lo.pass.Reportf(clause, "Ranks key %s names no mutex field", key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(lo.cfg.Acquires)) {
		name, ok := strings.CutPrefix(key, pkg.Path+".")
		if !ok {
			continue
		}
		if _, ok := lookupMember(pkg.Types, name).(*types.Func); !ok {
			lo.pass.Reportf(clause, "Acquires key %s names no function", key)
		}
		for _, l := range lo.cfg.Acquires[key] {
			if _, ranked := lo.cfg.Ranks[l]; !ranked {
				lo.pass.Reportf(clause, "Acquires[%s] lists %s, which has no rank", key, l)
			}
		}
	}
}

// lookupMember resolves a key's name within pkg — "Type.member" (a field or
// method) or a package-level "name" — to its object; nil when none exists.
func lookupMember(pkg *types.Package, name string) types.Object {
	typeName, member, dotted := strings.Cut(name, ".")
	obj := pkg.Scope().Lookup(typeName)
	if !dotted {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pkg, member)
	return obj
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex, or a pointer to one.
func isMutex(t types.Type) bool {
	name := qualifiedTypeName(t)
	return name == "sync.Mutex" || name == "sync.RWMutex"
}

// buildSummaries computes, to a fixpoint over the package's internal call
// graph, which ranked locks each function may acquire.
func (lo *lockOrder) buildSummaries() {
	lo.summaries = map[string]map[string]bool{}
	lo.calls = map[string][]string{}
	for _, f := range lo.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := funcDeclKey(lo.pass.Package, fd)
			acq := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if lockKey, op := lo.lockCall(call); lockKey != "" && (op == "Lock" || op == "RLock") {
					acq[lockKey] = true
					return true
				}
				ck := calleeKey(lo.pass.Package, call)
				if ck == "" {
					return true
				}
				for _, l := range lo.cfg.Acquires[ck] {
					if _, ranked := lo.cfg.Ranks[l]; ranked {
						acq[l] = true
					}
				}
				lo.calls[key] = append(lo.calls[key], ck)
				return true
			})
			lo.summaries[key] = acq
		}
	}
	for changed := true; changed; {
		changed = false
		for key, callees := range lo.calls {
			for _, ck := range callees {
				for l := range lo.summaries[ck] {
					if !lo.summaries[key][l] {
						lo.summaries[key][l] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockCall resolves a call to a ranked sync.Mutex/RWMutex method; returns
// the lock's key and the method name ("" when it is not one).
func (lo *lockOrder) lockCall(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	m, ok := lo.pass.Info.Selections[sel]
	if !ok || m.Obj().Pkg() == nil || m.Obj().Pkg().Path() != "sync" {
		return "", ""
	}
	key := fieldKey(lo.pass.Package, sel.X)
	if _, ranked := lo.cfg.Ranks[key]; !ranked {
		return "", ""
	}
	return key, op
}

// held tracks the ranked locks currently held, with the position of each
// acquisition for the report.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (lo *lockOrder) checkFunc(fd *ast.FuncDecl) {
	self := funcDeclKey(lo.pass.Package, fd)
	lo.walkStmts(fd.Body.List, held{}, self)
}

func (lo *lockOrder) walkStmts(stmts []ast.Stmt, h held, self string) {
	for _, s := range stmts {
		lo.walkStmt(s, h, self)
	}
}

func (lo *lockOrder) walkStmt(s ast.Stmt, h held, self string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		lo.walkStmts(st.List, h, self)
	case *ast.IfStmt:
		if st.Init != nil {
			lo.walkStmt(st.Init, h, self)
		}
		lo.scanExpr(st.Cond, h, self)
		lo.walkStmt(st.Body, h.clone(), self)
		if st.Else != nil {
			lo.walkStmt(st.Else, h.clone(), self)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lo.walkStmt(st.Init, h, self)
		}
		if st.Cond != nil {
			lo.scanExpr(st.Cond, h, self)
		}
		body := h.clone()
		lo.walkStmt(st.Body, body, self)
		if st.Post != nil {
			lo.walkStmt(st.Post, body, self)
		}
	case *ast.RangeStmt:
		lo.scanExpr(st.X, h, self)
		lo.walkStmt(st.Body, h.clone(), self)
	case *ast.SwitchStmt:
		if st.Init != nil {
			lo.walkStmt(st.Init, h, self)
		}
		if st.Tag != nil {
			lo.scanExpr(st.Tag, h, self)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.walkStmts(cc.Body, h.clone(), self)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.walkStmts(cc.Body, h.clone(), self)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					lo.walkStmt(cc.Comm, h.clone(), self)
				}
				lo.walkStmts(cc.Body, h.clone(), self)
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at function exit: the lock stays held
		// for the remainder of the walk, which is the truth ordering cares
		// about. Other deferred calls (closures) start from no held locks —
		// lenient, but deferred work runs at exit where the straight-line
		// holds have been released or are covered by their own defers.
		if key, op := lo.lockCall(st.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
			return
		}
		lo.scanExpr(st.Call, held{}, self)
	case *ast.GoStmt:
		// A spawned goroutine starts with no locks held.
		lo.scanExpr(st.Call, held{}, self)
	case *ast.ExprStmt:
		lo.scanExpr(st.X, h, self)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			lo.scanExpr(e, h, self)
		}
		for _, e := range st.Lhs {
			lo.scanExpr(e, h, self)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			lo.scanExpr(e, h, self)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lo.walkStmts(fl.Body.List, held{}, self)
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				lo.checkCall(call, h, self)
			}
			return true
		})
	}
}

// scanExpr visits the calls inside one expression in source order, checking
// each against the held set. Function literals are walked with an empty
// held set — they run later, on their own goroutine or call stack.
func (lo *lockOrder) scanExpr(e ast.Expr, h held, self string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lo.walkStmts(fl.Body.List, held{}, self)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			lo.checkCall(call, h, self)
		}
		return true
	})
}

// checkCall applies the ordering rule to one call: a direct Lock/RLock
// mutates the held set; a call into a summarized function checks the
// callee's acquisitions against it.
func (lo *lockOrder) checkCall(call *ast.CallExpr, h held, self string) {
	if key, op := lo.lockCall(call); key != "" {
		switch op {
		case "Lock", "RLock":
			lo.checkAcquire(call.Pos(), key, h, "")
			h[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(h, key)
		}
		return
	}
	ck := calleeKey(lo.pass.Package, call)
	if ck == "" || ck == self {
		return
	}
	acq := map[string]bool{}
	for l := range lo.summaries[ck] {
		acq[l] = true
	}
	for _, l := range lo.cfg.Acquires[ck] {
		if _, ranked := lo.cfg.Ranks[l]; ranked {
			acq[l] = true
		}
	}
	keys := make([]string, 0, len(acq))
	for l := range acq {
		keys = append(keys, l)
	}
	sort.Strings(keys)
	for _, l := range keys {
		lo.checkAcquire(call.Pos(), l, h, ck)
	}
}

func (lo *lockOrder) checkAcquire(pos token.Pos, key string, h held, via string) {
	rank := lo.cfg.Ranks[key]
	for hk := range h {
		if hk == key {
			if via == "" {
				lo.pass.Reportf(pos, "lock %s acquired while already held (non-reentrant mutex)", key)
			} else {
				lo.pass.Reportf(pos, "call to %s may re-acquire %s, which is already held (non-reentrant mutex)", via, key)
			}
			continue
		}
		if lo.cfg.Ranks[hk] > rank {
			if via == "" {
				lo.pass.Reportf(pos, "lock %s (rank %d) acquired while holding later-ranked %s (rank %d); the documented order is violated",
					key, rank, hk, lo.cfg.Ranks[hk])
			} else {
				lo.pass.Reportf(pos, "call to %s may acquire %s (rank %d) while %s (rank %d) is held; the documented order is violated",
					via, key, rank, hk, lo.cfg.Ranks[hk])
			}
		}
	}
}
