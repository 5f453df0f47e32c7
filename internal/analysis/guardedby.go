package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Guardedby enforces "// guarded by <mu>" field comments: a struct field
// so annotated may only be touched through the receiver inside a method
// that visibly holds the named mutex at the access.
//
// The check is syntactic and intra-package, by design (DESIGN.md §10): a
// method holds the mutex at an access if, scanning the body in source
// order, a recv.mu.Lock()/RLock() precedes the access without an
// intervening non-deferred recv.mu.Unlock()/RUnlock(); `defer
// recv.mu.Unlock()` keeps it held to the end. Internal helpers that are
// documented preconditions — a doc comment naming the mutex as held
// ("… with mu held", "caller holds mu") — are exempt, and individual
// sites can annotate //lint:unguarded <reason> (reason required).
// Branch-sensitive locking that the source-order scan cannot follow is
// exactly what the annotation is for.
var Guardedby = &Analyzer{
	Name: "guardedby",
	Doc:  "require methods to hold the mutex named in '// guarded by <mu>' field comments (escape: //lint:unguarded <reason>)",
	Run:  runGuardedby,
}

// guardedByRE extracts the mutex field name from a field comment.
var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// holdsPreconditionRE matches doc comments that declare the lock as a
// caller-supplied precondition.
var holdsPreconditionRE = regexp.MustCompile(`(?i)\b(holds?|held|locked|under)\b`)

func runGuardedby(pass *Pass) error {
	pass.ReportBadAnnotations("unguarded")
	guards := collectGuardedFields(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			checkMethod(pass, fd, guards)
		}
	}
	return nil
}

// collectGuardedFields maps each annotated struct type to its
// field-name → guard-name table.
func collectGuardedFields(pass *Pass) map[*types.TypeName]map[string]string {
	out := make(map[*types.TypeName]map[string]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := fieldGuardName(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if out[tn] == nil {
						out[tn] = make(map[string]string)
					}
					out[tn][name.Name] = guard
				}
			}
			return true
		})
	}
	return out
}

// fieldGuardName reads a field's doc or trailing comment for the
// "guarded by <mu>" marker.
func fieldGuardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockEvent is one mutex-state-changing call or one guarded access, in
// source order.
type lockEvent struct {
	pos      token.Pos
	guard    string // mutex field name
	kind     string // "lock", "unlock", "access"
	field    string // accessed field, for kind == "access"
	deferred bool
}

// checkMethod replays a method body in source order, tracking which
// guards are held.
func checkMethod(pass *Pass, fd *ast.FuncDecl, guards map[*types.TypeName]map[string]string) {
	recvFields := methodGuards(pass, fd, guards)
	if recvFields == nil {
		return
	}
	recvName := receiverName(fd)
	if recvName == "" {
		// No named receiver: fields cannot be accessed through it.
		return
	}
	if declaresPrecondition(fd, recvFields) {
		return
	}
	events := collectLockEvents(pass, fd, recvName, recvFields)
	held := make(map[string]bool)
	for _, e := range events {
		switch e.kind {
		case "lock":
			held[e.guard] = true
		case "unlock":
			if !e.deferred {
				held[e.guard] = false
			}
		case "access":
			if held[e.guard] {
				continue
			}
			if pass.SuppressedAt(e.pos, "unguarded", true) {
				continue
			}
			pass.Reportf(e.pos, "field %s.%s is guarded by %s, but %s does not hold it here; lock %s.%s, document the precondition, or annotate //lint:unguarded <reason>",
				recvName, e.field, e.guard, fd.Name.Name, recvName, e.guard)
		}
	}
}

// methodGuards returns the guarded-field table for fd's receiver type,
// or nil when the receiver is not an annotated struct.
func methodGuards(pass *Pass, fd *ast.FuncDecl, guards map[*types.TypeName]map[string]string) map[string]string {
	recv := fd.Recv.List[0]
	tv, ok := pass.TypesInfo.Types[recv.Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return guards[named.Obj()]
}

func receiverName(fd *ast.FuncDecl) string {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}

// declaresPrecondition reports whether the method's doc comment names a
// guard mutex together with hold/held/locked/under language — the
// convention for "caller holds mu" helpers.
func declaresPrecondition(fd *ast.FuncDecl, recvFields map[string]string) bool {
	if fd.Doc == nil {
		return false
	}
	doc := fd.Doc.Text()
	if !holdsPreconditionRE.MatchString(doc) {
		return false
	}
	mentioned := make(map[string]bool)
	for _, guard := range recvFields {
		mentioned[guard] = true
	}
	for guard := range mentioned {
		if regexp.MustCompile(`\b` + regexp.QuoteMeta(guard) + `\b`).MatchString(doc) {
			return true
		}
	}
	return false
}

// collectLockEvents walks the body and returns guard-relevant events in
// source order.
func collectLockEvents(pass *Pass, fd *ast.FuncDecl, recvName string, recvFields map[string]string) []lockEvent {
	guardNames := make(map[string]bool)
	for _, g := range recvFields {
		guardNames[g] = true
	}
	var events []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				if g, op := lockCall(n, recvName, guardNames); g != "" {
					events = append(events, lockEvent{pos: n.Pos(), guard: g, kind: op, deferred: deferred})
					// Still descend: arguments could access fields.
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == recvName {
					if guard, ok := recvFields[n.Sel.Name]; ok {
						events = append(events, lockEvent{pos: n.Pos(), guard: guard, kind: "access", field: n.Sel.Name})
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
	// ast.Inspect visits in source order per subtree, but deferred calls
	// were visited out of band; restore global source order.
	sortEvents(events)
	return events
}

func sortEvents(events []lockEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// lockCall recognizes recv.<guard>.Lock/RLock/Unlock/RUnlock() and
// returns the guard name and "lock"/"unlock".
func lockCall(call *ast.CallExpr, recvName string, guardNames map[string]bool) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || !guardNames[inner.Sel.Name] {
		return "", ""
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok || id.Name != recvName {
		return "", ""
	}
	return inner.Sel.Name, op
}
