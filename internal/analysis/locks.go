package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// This file holds both lock rules and the one lock walk they share: a
// single collection of the package's mutexes and guarded-by
// annotations, a single flow-sensitive simulation, and a single driver
// that runs the simulation over every declared function. Each rule only
// wires its own hooks into that driver.

// Lockguard turns the repository's "guarded by <mu>" field comments into
// a checked contract. The fleet's correctness rests on mutex
// discipline that used to live only in prose — the registry's
// member list, the breaker's state window, the LRU cache's tables. The
// race detector only catches the interleavings a test happens to drive;
// this rule proves the discipline on every syntactic path.
//
// A struct field annotated
//
//	members []*Node // guarded by mu
//
// may only be read or written while the named sibling mutex is held.
// The checker runs a flow-sensitive simulation over each function body:
// base.mu.Lock() adds (base, mu) to the held set in write mode,
// base.mu.RLock() adds it in read mode, Unlock()/RUnlock() removes it,
// defer base.mu.Unlock() keeps it held to the end of the function, and
// branches merge by intersection at the weaker mode — a branch that
// returns early (the classic `if n == nil { r.mu.Unlock(); return }`
// bailout) does not poison the straight-line path, and a path that only
// proves an RLock cannot vouch for writes. Reads are satisfied by
// either mode; writes (assignment targets, `++`/`--`, stores through an
// index chain rooted at the field) demand the write lock, so a
// `guarded by` field mutated under nothing but an RLock is a
// diagnostic. Method summaries are computed first: an unexported method
// whose body touches guarded receiver fields without locking
// (rebuildLocked, removeLocked) is recorded as a caller-holds helper at
// the strongest mode its accesses need, its call sites are checked
// instead, and the requirement propagates up through receiver-method
// call chains. Exported methods cannot lean on that contract when the
// mutex is unexported — an external caller has no way to hold it — so
// their unheld accesses are reported directly. Goroutine bodies and
// stored closures start with an empty held set: a `go` statement
// escapes the critical section that spawned it.
//
// Known limits, by design: lock identity is tracked lexically (the
// rendered base expression), loop bodies are simulated once with the
// entry state, and summaries only cover methods of the annotated
// struct — a helper reached through a function value is checked as an
// independent closure.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated // guarded by <mu> must only be accessed while that mutex is held (writes need the write lock)",
	URL:  ruleURL("lockguard"),
	Run:  runLockguard,
}

func runLockguard(pass *Pass) error {
	w := newLockWalk(pass)
	for _, b := range w.badGuards {
		pass.Reportf(b.pos, "guarded-by annotation names %q, which is not a sibling sync.Mutex or sync.RWMutex field", b.name)
	}
	if len(w.guarded) == 0 {
		return nil
	}
	tracked := func(v *types.Var) bool { return w.guards[v] }
	// Phase one computes the caller-holds contracts to a fixpoint: a
	// method that touches guarded receiver fields (or calls another
	// caller-holds method on its receiver) without locking requires the
	// mutex from its own callers, at the strongest mode any of its
	// accesses needs. Exported methods with an unexported guard are
	// excluded: callers outside the package cannot satisfy such a
	// contract, so phase two reports their accesses directly.
	for changed := true; changed; {
		changed = false
		w.walk(tracked, func(s *lockSim, fn funcUnit) heldSet {
			recv := recvIdentName(fn.decl)
			if recv == "" {
				return nil
			}
			require := func(base string, mu *types.Var, need lockMode) {
				if s.litDepth == 0 && base == recv && (!fn.decl.Name.IsExported() || mu.Exported()) {
					changed = w.require(fn.obj, mu, need) || changed
				}
			}
			s.found = func(_ *ast.SelectorExpr, base string, _, mu *types.Var, need, _ lockMode) {
				require(base, mu, need)
			}
			s.foundCall = func(_ *ast.CallExpr, _ types.Object, base string, req lockReq, _ lockMode) {
				require(base, req.mu, req.mode)
			}
			return heldSet{}
		})
	}
	for obj, reqs := range w.requires {
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].mu.Name() < reqs[j].mu.Name() })
		w.requires[obj] = reqs
	}
	// Phase two simulates every function, seeding methods with their own
	// caller-holds contract, and reports the accesses and calls that
	// reach a guarded field with the mutex demonstrably not held (or held
	// only for reading where a write needs it).
	w.walk(tracked, func(s *lockSim, fn funcUnit) heldSet {
		held := heldSet{}
		if recv := recvIdentName(fn.decl); recv != "" {
			for _, req := range w.requires[fn.obj] {
				held[lockKey{recv, req.mu}] = req.mode
			}
		}
		s.found = func(sel *ast.SelectorExpr, base string, f, mu *types.Var, need, heldMode lockMode) {
			if need == modeWrite && heldMode == modeRead {
				pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %q and written here, but only an RLock is held on this path; a write needs %s.%s.Lock()", base, f.Name(), mu.Name(), base, mu.Name())
				return
			}
			pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %q but the mutex is not held on this path; hold %s.%s across the access (or lift it into a method whose callers do)", base, f.Name(), mu.Name(), base, mu.Name())
		}
		s.foundCall = func(call *ast.CallExpr, callee types.Object, base string, req lockReq, heldMode lockMode) {
			if heldMode == modeRead && req.mode == modeWrite {
				pass.Reportf(call.Pos(), "call to %s holding only %s.%s.RLock: the callee writes fields guarded by %q and needs the write lock", callee.Name(), base, req.mu.Name(), req.mu.Name())
				return
			}
			pass.Reportf(call.Pos(), "call to %s without holding %s.%s: the callee touches fields guarded by %q and expects its caller to hold the mutex", callee.Name(), base, req.mu.Name(), req.mu.Name())
		}
		return held
	})
	return nil
}

// Lockorder hunts for the deadlocks lockguard cannot see: paths where
// every individual lock is held correctly, but two paths acquire the
// same pair of locks in opposite orders. The live-membership machinery
// made this the repo's sharpest risk surface — the Registry, Health
// loop, drift watchdog and per-device breakers each own a mutex, and a
// health tick that locks the registry and then a breaker can deadlock
// against a breaker callback that locks in the other order.
//
// The rule runs the same lock walk as lockguard, but tracks *every*
// sync.Mutex/RWMutex field of a named struct and every package-level
// mutex var, annotated or not. Per function (and through one-level
// summaries of package-local callees, so `r.mu.Lock(); r.rebuild()`
// attributes rebuild's acquisitions to the call site) it records each
// lock acquired while another is held, then assembles a package-wide
// acquisition-order graph whose nodes are (struct type, mutex field)
// pairs. Any cycle is an AB–BA deadlock waiting for the right
// interleaving; the diagnostic spells out the full witness chain of
// call sites so the fix (pick one order, or drop a lock before the
// call) is mechanical. Two acquisitions of the same node on one path
// are reported directly: re-locking a mutex the path already holds is
// a guaranteed self-deadlock (for an RWMutex, a recursive RLock can
// deadlock against a writer waiting between the two RLocks), and
// locking a second *instance* of the same struct while holding the
// first has no defined order between instances at all.
//
// Known limits, by design: lock identity is lexical (per lockguard), a
// cycle spanning packages is invisible to a per-package pass, and
// summaries stop at one level — a chain laundered through two helpers
// needs the intermediate call inlined or annotated away.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisition order must be acyclic across the package, and no path may re-acquire a lock it already holds",
	URL:  ruleURL("lockorder"),
	Run:  runLockorder,
}

func runLockorder(pass *Pass) error {
	w := newLockWalk(pass)
	if len(w.labels) == 0 {
		return nil
	}
	lo := &lockorderPass{lockWalk: w, acq: map[types.Object][]acqRec{}, edges: map[orderEdge]*orderWitness{}}
	tracked := func(v *types.Var) bool { _, ok := w.labels[v]; return ok }
	// First walk: record each function's direct (synchronous, top-level)
	// acquisitions so the second can attribute them to call sites one
	// level up. Closure bodies are excluded: a stored closure or
	// goroutine does not acquire at the time of the enclosing call.
	w.walk(tracked, func(s *lockSim, fn funcUnit) heldSet {
		recv := recvIdentName(fn.decl)
		s.onAcquire = func(call *ast.CallExpr, key lockKey, mode lockMode, held heldSet) {
			if s.litDepth != 0 {
				return
			}
			rec := acqRec{mu: key.mu, viaRecv: recv != "" && key.base == recv}
			for _, have := range lo.acq[fn.obj] {
				if have.mu == rec.mu && have.viaRecv == rec.viaRecv {
					return
				}
			}
			lo.acq[fn.obj] = append(lo.acq[fn.obj], rec)
		}
		return heldSet{}
	})
	// Second walk: report same-node re-acquisitions immediately and
	// record cross-node pairs as graph edges, both for direct
	// acquisitions and, through the summaries, for calls made while a
	// lock is held.
	w.walk(tracked, func(s *lockSim, fn funcUnit) heldSet {
		fnName := fn.decl.Name.Name
		s.onAcquire = func(call *ast.CallExpr, key lockKey, mode lockMode, held heldSet) {
			if prior, ok := held[key]; ok {
				lo.reportReacquire(call.Pos(), key, mode, prior)
				return
			}
			for _, hk := range sortedHeld(lo, held) {
				if hk.mu == key.mu {
					pass.Reportf(call.Pos(), "%s acquired while %s is held on another instance (%s): locks on two instances of the same struct have no defined order and can deadlock against the reverse interleaving", lo.lockExpr(key), w.labels[key.mu], lo.lockExpr(hk))
					continue
				}
				lo.addEdge(hk.mu, key.mu, &orderWitness{
					pos: call.Pos(),
					desc: fmt.Sprintf("%s acquires %s while holding %s", fnName,
						w.labels[key.mu], w.labels[hk.mu]),
				})
			}
		}
		s.onCall = func(call *ast.CallExpr, callee types.Object, held heldSet) {
			recs := lo.acq[callee]
			if len(recs) == 0 {
				return
			}
			callBase, baseOK := "", false
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				callBase, baseOK = exprKey(sel.X)
			}
			for _, rec := range recs {
				if rec.viaRecv && baseOK {
					if _, already := held[lockKey{callBase, rec.mu}]; already {
						pass.Reportf(call.Pos(), "call to %s acquires %s.%s, which is already held on this path: self-deadlock", callee.Name(), callBase, rec.mu.Name())
						continue
					}
				}
				for _, hk := range sortedHeld(lo, held) {
					if hk.mu == rec.mu {
						continue
					}
					lo.addEdge(hk.mu, rec.mu, &orderWitness{
						pos: call.Pos(),
						desc: fmt.Sprintf("%s calls %s, which acquires %s, while holding %s", fnName,
							callee.Name(), w.labels[rec.mu], w.labels[hk.mu]),
					})
				}
			}
		}
		return heldSet{}
	})
	lo.reportCycles()
	return nil
}

// acqRec is one acquisition a function performs directly: the mutex
// node, and whether the base expression is the method receiver (so a
// call site can rebind it to the call's own base).
type acqRec struct {
	mu      *types.Var
	viaRecv bool
}

// orderEdge from→to means some path acquires `to` while holding `from`.
type orderEdge struct {
	from, to *types.Var
}

// orderWitness is the first (deterministically: files and declarations
// in order) call site proving an edge.
type orderWitness struct {
	pos  token.Pos
	desc string
}

type lockorderPass struct {
	*lockWalk
	// acq holds the one-level summaries: every function's direct
	// acquisitions.
	acq   map[types.Object][]acqRec
	edges map[orderEdge]*orderWitness
}

func (lo *lockorderPass) reportReacquire(pos token.Pos, key lockKey, mode, prior lockMode) {
	name := lo.lockExpr(key)
	if mode == modeRead && prior == modeRead {
		lo.pass.Reportf(pos, "recursive %s.RLock() while the read lock is already held on this path: deadlocks if a writer's Lock() lands between the two (sync.RWMutex forbids recursive read locking)", name)
		return
	}
	verb := "Lock"
	if mode == modeRead {
		verb = "RLock"
	}
	lo.pass.Reportf(pos, "%s.%s() while %s is already held on this path: self-deadlock", name, verb, name)
}

func (lo *lockorderPass) addEdge(from, to *types.Var, w *orderWitness) {
	key := orderEdge{from, to}
	if _, ok := lo.edges[key]; ok {
		return
	}
	lo.edges[key] = w
}

// lockExpr renders a held-set key for a message: "r.mu" when the base is
// known, the node label otherwise.
func (lo *lockorderPass) lockExpr(key lockKey) string {
	if key.base == "" {
		return key.mu.Name()
	}
	return key.base + "." + key.mu.Name()
}

// sortedHeld returns the held keys in a deterministic order (node
// label, then base) so edge witnesses do not depend on map iteration.
func sortedHeld(lo *lockorderPass, held heldSet) []lockKey {
	keys := make([]lockKey, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		li, lj := lo.labels[keys[i].mu], lo.labels[keys[j].mu]
		if li != lj {
			return li < lj
		}
		return keys[i].base < keys[j].base
	})
	return keys
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports one diagnostic per component, with the witness
// chain spelling out every call site on a representative cycle.
func (lo *lockorderPass) reportCycles() {
	nodes := make([]*types.Var, 0, len(lo.labels))
	for mu := range lo.labels {
		nodes = append(nodes, mu)
	}
	sort.Slice(nodes, func(i, j int) bool { return lo.labels[nodes[i]] < lo.labels[nodes[j]] })
	succ := map[*types.Var][]*types.Var{}
	for e := range lo.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	for _, s := range succ {
		sort.Slice(s, func(i, j int) bool { return lo.labels[s[i]] < lo.labels[s[j]] })
	}
	for _, scc := range stronglyConnected(nodes, succ) {
		if len(scc) < 2 {
			continue
		}
		lo.reportCycle(scc, succ)
	}
}

// stronglyConnected is Tarjan's algorithm, iterative over the sorted
// node list so component discovery order is deterministic.
func stronglyConnected(nodes []*types.Var, succ map[*types.Var][]*types.Var) [][]*types.Var {
	index := map[*types.Var]int{}
	lowlink := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0

	type frame struct {
		v  *types.Var
		ei int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{root, 0}}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ei < len(succ[f.v]) {
				w := succ[f.v][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{w, 0})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []*types.Var
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// reportCycle reconstructs one representative cycle through the
// component and emits the diagnostic at its first witness.
func (lo *lockorderPass) reportCycle(scc []*types.Var, succ map[*types.Var][]*types.Var) {
	in := map[*types.Var]bool{}
	for _, mu := range scc {
		in[mu] = true
	}
	sort.Slice(scc, func(i, j int) bool { return lo.labels[scc[i]] < lo.labels[scc[j]] })
	start := scc[0]
	path := []*types.Var{start}
	visited := map[*types.Var]bool{start: true}
	cur := start
	for range make([]struct{}, 2*len(scc)+1) {
		var next *types.Var
		for _, w := range succ[cur] {
			if w == start && len(path) > 1 {
				next = w
				break
			}
			if in[w] && !visited[w] {
				next = w
				break
			}
		}
		if next == nil {
			// All in-SCC successors already visited; close through any.
			for _, w := range succ[cur] {
				if in[w] {
					next = w
					break
				}
			}
		}
		if next == nil {
			return
		}
		path = append(path, next)
		if next == start {
			break
		}
		visited[next] = true
		cur = next
	}
	if path[len(path)-1] != start {
		return
	}
	labels := make([]string, len(path))
	for i, mu := range path {
		labels[i] = lo.labels[mu]
	}
	var chain []string
	for i := 0; i+1 < len(path); i++ {
		w := lo.edges[orderEdge{path[i], path[i+1]}]
		if w == nil {
			continue
		}
		chain = append(chain, fmt.Sprintf("%s (%s)", w.desc, lo.posn(w.pos)))
	}
	first := lo.edges[orderEdge{path[0], path[1]}]
	lo.pass.Reportf(first.pos, "lock-order cycle %s: %s — a concurrent pair of these paths deadlocks; acquire in one global order or release before the crossing call",
		strings.Join(labels, " → "), strings.Join(chain, "; "))
}

func (lo *lockorderPass) posn(pos token.Pos) string {
	p := lo.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// lockWalk is the state both lock rules share for one package: its
// mutexes, its guarded-by annotations, and lockguard's caller-holds
// summaries.
type lockWalk struct {
	pass *Pass
	// labels names every mutex node: a sync.Mutex/RWMutex field of a
	// named struct as "StructType.field" (so Registry.mu and Breaker.mu
	// are distinct nodes even when both are spelled "mu"), a
	// package-level mutex var by its bare name.
	labels map[*types.Var]string
	// guarded maps a field annotated "guarded by <mu>" to the sibling
	// mutex that guards it; guards is the set of mutexes so named.
	guarded map[*types.Var]*types.Var
	guards  map[*types.Var]bool
	// badGuards are the annotations that name no sibling mutex.
	badGuards []badGuard
	// requires maps a method to the receiver mutexes (and the hold mode)
	// its callers must provide: the caller-holds summaries, sorted by
	// mutex name once complete.
	requires map[types.Object][]lockReq
}

type badGuard struct {
	pos  token.Pos
	name string
}

// newLockWalk collects the package's mutexes and guarded-by annotations
// in one pass over its syntax.
func newLockWalk(pass *Pass) *lockWalk {
	w := &lockWalk{
		pass:     pass,
		labels:   map[*types.Var]string{},
		guarded:  map[*types.Var]*types.Var{},
		guards:   map[*types.Var]bool{},
		requires: map[types.Object][]lockReq{},
	}
	structName := map[*ast.StructType]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.TypeSpec:
				if st, ok := v.Type.(*ast.StructType); ok {
					structName[st] = v.Name.Name
				}
			case *ast.StructType:
				w.collectStruct(v, structName[v])
			case *ast.ValueSpec:
				for _, name := range v.Names {
					mv, ok := pass.Info.ObjectOf(name).(*types.Var)
					if ok && mv.Parent() == pass.Pkg.Scope() && isMutexType(mv.Type()) {
						w.labels[mv] = name.Name
					}
				}
			}
			return true
		})
	}
	return w
}

// collectStruct records one struct type's mutex fields (as lock-order
// nodes when the struct is named) and resolves each guarded-by
// annotation to a sibling mutex field.
func (w *lockWalk) collectStruct(st *ast.StructType, typeName string) {
	mutexes := map[string]*types.Var{}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if mv, ok := w.pass.Info.ObjectOf(name).(*types.Var); ok && isMutexType(mv.Type()) {
				mutexes[name.Name] = mv
				if typeName != "" {
					w.labels[mv] = typeName + "." + name.Name
				}
			}
		}
	}
	for _, field := range st.Fields.List {
		name := guardNameOf(field)
		if name == "" {
			continue
		}
		mu := mutexes[name]
		if mu == nil {
			w.badGuards = append(w.badGuards, badGuard{field.Pos(), name})
			continue
		}
		w.guards[mu] = true
		for _, fn := range field.Names {
			if v, ok := w.pass.Info.ObjectOf(fn).(*types.Var); ok {
				w.guarded[v] = mu
			}
		}
	}
}

// guardedByRe extracts the mutex field name from a field comment. The
// grammar is deliberately the prose people already write: any comment on
// the field containing "guarded by <ident>".
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardNameOf returns the mutex name a field's doc or trailing comment
// claims guards it, or "".
func guardNameOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// walk runs the lock simulation over every declared function body, in
// source order, with Lock and Unlock calls on the tracked mutexes
// driving the held set. wire installs a rule's hooks on the fresh
// simulation for one function and returns its entry held set, or nil to
// skip the function.
func (w *lockWalk) walk(tracked func(*types.Var) bool, wire func(s *lockSim, fn funcUnit) heldSet) {
	for _, fn := range w.pass.funcs {
		if fn.decl == nil {
			continue
		}
		s := &lockSim{lockWalk: w, tracked: tracked}
		if held := wire(s, fn); held != nil {
			s.block(fn.body.List, held)
		}
	}
}

// require merges one caller-holds obligation into fn's summary and
// reports whether the summary grew.
func (w *lockWalk) require(fn types.Object, mu *types.Var, mode lockMode) bool {
	reqs := w.requires[fn]
	for i := range reqs {
		if reqs[i].mu == mu {
			if mode <= reqs[i].mode {
				return false
			}
			reqs[i].mode = mode
			return true
		}
	}
	w.requires[fn] = append(reqs, lockReq{mu: mu, mode: mode})
	return true
}

// recvIdentName returns the receiver identifier of a method, or "" when
// it is unnamed or blank (such a method cannot touch its fields anyway).
func recvIdentName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fn.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// lockMode is how strongly a mutex is held: an RLock proves shared
// (read) access, a Lock proves exclusive (write) access. The zero value
// means "not held".
type lockMode int

const (
	modeRead  lockMode = 1
	modeWrite lockMode = 2
)

// lockReq is one caller-holds obligation: the mutex and the minimum
// mode the callee's accesses need.
type lockReq struct {
	mu   *types.Var
	mode lockMode
}

// lockKey identifies one held mutex: the rendered base expression plus
// the mutex field object, so r.mu and other.mu stay distinct.
type lockKey struct {
	base string
	mu   *types.Var
}

// heldSet maps each provably held mutex to the strongest mode the path
// guarantees.
type heldSet map[lockKey]lockMode

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, m := range h {
		out[k] = m
	}
	return out
}

// intersect keeps the locks held on both paths, at the weaker of the
// two modes: a merge of a Lock branch and an RLock branch only proves a
// read hold.
func intersect(a, b heldSet) heldSet {
	out := heldSet{}
	for k, ma := range a {
		if mb, ok := b[k]; ok {
			if mb < ma {
				out[k] = mb
			} else {
				out[k] = ma
			}
		}
	}
	return out
}

func intersectAll(sets []heldSet) heldSet {
	if len(sets) == 0 {
		return heldSet{}
	}
	out := sets[0]
	for _, s := range sets[1:] {
		out = intersect(out, s)
	}
	return out
}

// exprKey renders a lock base expression to a stable key: identifier
// chains only (r, s.reg). Anything else — an index expression, a call —
// is unkeyable and conservatively treated as never held.
func exprKey(x ast.Expr) (string, bool) {
	switch v := ast.Unparen(x).(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(v.X)
		if !ok {
			return "", false
		}
		return base + "." + v.Sel.Name, true
	}
	return "", false
}

// lockSim walks one function body tracking which (base, mutex) pairs
// are provably held and at what mode. lockguard wires found/foundCall to
// report unheld guarded accesses; lockorder wires onAcquire/onCall to
// build the acquisition-order graph. Every hook is optional.
type lockSim struct {
	*lockWalk
	// tracked selects the mutex variables whose Lock/Unlock calls drive
	// the held-set simulation.
	tracked func(*types.Var) bool

	litDepth int
	// found reports an access to a guarded field the current path does
	// not cover: need is the mode the access needs (modeWrite for a
	// write), heldMode the mode actually held (0 when unheld).
	found func(sel *ast.SelectorExpr, base string, f, mu *types.Var, need, heldMode lockMode)
	// foundCall reports a call whose callee's caller-holds requirement
	// the current path does not cover.
	foundCall func(call *ast.CallExpr, callee types.Object, base string, req lockReq, heldMode lockMode)
	// onAcquire observes every acquisition of a tracked mutex, with the
	// held set as it stood *before* the acquisition.
	onAcquire func(call *ast.CallExpr, key lockKey, mode lockMode, held heldSet)
	// onCall observes every resolved call expression with the current
	// held set (lock-op calls themselves excluded).
	onCall func(call *ast.CallExpr, callee types.Object, held heldSet)
}

// block simulates a statement list, returning the exit held set and
// whether the list terminates (returns/branches) rather than falling
// through.
func (s *lockSim) block(list []ast.Stmt, held heldSet) (heldSet, bool) {
	for _, st := range list {
		var term bool
		held, term = s.stmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (s *lockSim) stmt(st ast.Stmt, held heldSet) (heldSet, bool) {
	switch v := st.(type) {
	case nil:
		return held, false
	case *ast.BlockStmt:
		return s.block(v.List, held)
	case *ast.LabeledStmt:
		return s.stmt(v.Stmt, held)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			if key, mode, acquire, isLock := s.lockOp(call); isLock {
				s.scanLockBase(call, held)
				if acquire {
					if s.onAcquire != nil {
						s.onAcquire(call, key, mode, held)
					}
					held[key] = mode
				} else {
					delete(held, key)
				}
				return held, false
			}
		}
		s.scan(v.X, held)
		return held, false
	case *ast.DeferStmt:
		if _, _, acquire, isLock := s.lockOp(v.Call); isLock && !acquire {
			// defer mu.Unlock(): held to the end of the function.
			s.scanLockBase(v.Call, held)
			return held, false
		}
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure runs at return time with whatever was
			// held when the defer was registered still in force on the
			// usual lock-then-defer pattern.
			s.funcLit(lit, held.clone())
			for _, a := range v.Call.Args {
				s.scan(a, held)
			}
			return held, false
		}
		s.scan(v.Call, held)
		return held, false
	case *ast.GoStmt:
		// The spawned goroutine runs concurrently: nothing the spawner
		// holds is held inside it.
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			s.funcLit(lit, heldSet{})
		} else {
			s.checkCall(v.Call, heldSet{})
		}
		for _, a := range v.Call.Args {
			s.scan(a, held)
		}
		return held, false
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			s.scan(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; terminating
		// here keeps the intersection merges from mixing in their state.
		return held, true
	case *ast.IfStmt:
		if v.Init != nil {
			held, _ = s.stmt(v.Init, held)
		}
		s.scan(v.Cond, held)
		thenHeld, thenTerm := s.block(v.Body.List, held.clone())
		if v.Else == nil {
			if thenTerm {
				return held, false
			}
			return intersect(held, thenHeld), false
		}
		elseHeld, elseTerm := s.stmt(v.Else, held.clone())
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		}
		return intersect(thenHeld, elseHeld), false
	case *ast.ForStmt:
		if v.Init != nil {
			held, _ = s.stmt(v.Init, held)
		}
		if v.Cond != nil {
			s.scan(v.Cond, held)
		}
		bodyHeld, _ := s.block(v.Body.List, held.clone())
		if v.Post != nil {
			s.stmt(v.Post, bodyHeld.clone())
		}
		return intersect(held, bodyHeld), false
	case *ast.RangeStmt:
		s.scan(v.X, held)
		bodyHeld, _ := s.block(v.Body.List, held.clone())
		return intersect(held, bodyHeld), false
	case *ast.SwitchStmt:
		if v.Init != nil {
			held, _ = s.stmt(v.Init, held)
		}
		if v.Tag != nil {
			s.scan(v.Tag, held)
		}
		return s.clauses(v.Body, held, hasDefaultClause(v.Body))
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			held, _ = s.stmt(v.Init, held)
		}
		held, _ = s.stmt(v.Assign, held)
		return s.clauses(v.Body, held, hasDefaultClause(v.Body))
	case *ast.SelectStmt:
		if len(v.Body.List) == 0 {
			return held, true // select{} blocks forever
		}
		// A select always takes one of its cases, so if every body
		// terminates the select never falls through.
		return s.clauses(v.Body, held, true)
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			s.scan(r, held)
		}
		for _, l := range v.Lhs {
			s.scanWrite(l, held)
		}
		return held, false
	case *ast.IncDecStmt:
		s.scanWrite(v.X, held)
		return held, false
	default:
		s.scan(st, held)
		return held, false
	}
}

// clauses merges the bodies of a switch or select: the exit state is the
// intersection of every clause that can fall through, plus the entry
// state when no clause has to be taken (a switch without default).
func (s *lockSim) clauses(body *ast.BlockStmt, held heldSet, exhaustive bool) (heldSet, bool) {
	var outs []heldSet
	allTerm := true
	for _, cl := range body.List {
		h := held.clone()
		var term bool
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s.scan(e, held)
			}
			h, term = s.block(c.Body, h)
		case *ast.CommClause:
			if c.Comm != nil {
				h, _ = s.stmt(c.Comm, h)
			}
			h, term = s.block(c.Body, h)
		}
		if !term {
			outs = append(outs, h)
			allTerm = false
		}
	}
	if !exhaustive {
		outs = append(outs, held)
		allTerm = false
	}
	if allTerm {
		return held, true
	}
	return intersectAll(outs), false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// funcLit simulates a closure body with the given entry state.
func (s *lockSim) funcLit(lit *ast.FuncLit, held heldSet) {
	s.litDepth++
	s.block(lit.Body.List, held)
	s.litDepth--
}

// lockOp recognizes Lock()/RLock()/Unlock()/RUnlock() on a tracked
// mutex — base.mu.Lock() or a bare mu.Lock() on a package-level mutex
// var — returning the held-set key, the mode the call (would) grant,
// and whether it acquires.
func (s *lockSim) lockOp(call *ast.CallExpr) (lockKey, lockMode, bool, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false, false
	}
	var acquire bool
	mode := modeWrite
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, mode = true, modeRead
	case "Unlock":
		acquire = false
	case "RUnlock":
		acquire, mode = false, modeRead
	default:
		return lockKey{}, 0, false, false
	}
	var id *ast.Ident
	var base string
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		b, keyable := exprKey(x.X)
		if !keyable {
			return lockKey{}, 0, false, false
		}
		id, base = x.Sel, b
	case *ast.Ident:
		id = x
	default:
		return lockKey{}, 0, false, false
	}
	mv, ok := s.pass.Info.ObjectOf(id).(*types.Var)
	if !ok || !s.tracked(mv) {
		return lockKey{}, 0, false, false
	}
	return lockKey{base, mv}, mode, acquire, true
}

// scanLockBase scans what a recognized lock call evaluates to reach its
// mutex: o.inner in o.inner.mu.Lock() is a read of o.inner, checked
// against the locks held before the call takes or drops its own.
func (s *lockSim) scanLockBase(call *ast.CallExpr, held heldSet) {
	fun := ast.Unparen(call.Fun).(*ast.SelectorExpr) // lockOp recognized it
	if mu, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
		s.scan(mu.X, held)
	}
}

// scan walks a non-control node reporting guarded accesses and
// caller-holds calls against the current held set. Closures inside start
// empty: a stored function value can run on any goroutine at any time.
func (s *lockSim) scan(n ast.Node, held heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			s.funcLit(v, heldSet{})
			return false
		case *ast.CallExpr:
			s.checkCall(v, held)
		case *ast.SelectorExpr:
			s.checkAccess(v, held, modeRead)
		}
		return true
	})
}

// scanWrite walks an assignment target: the guarded field at the root
// of the selector/index chain is a *write* (it needs the write lock),
// while the index expressions and base chains it evaluates are reads.
func (s *lockSim) scanWrite(x ast.Expr, held heldSet) {
	switch v := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		s.checkAccess(v, held, modeWrite)
		s.scan(v.X, held)
	case *ast.IndexExpr:
		// t.rows[k] = v mutates the map/slice the field refers to: the
		// field itself is the write target.
		s.scanWrite(v.X, held)
		s.scan(v.Index, held)
	case *ast.StarExpr:
		s.scan(v.X, held)
	default:
		s.scan(x, held)
	}
}

func (s *lockSim) checkAccess(sel *ast.SelectorExpr, held heldSet, need lockMode) {
	fv, ok := s.pass.Info.ObjectOf(sel.Sel).(*types.Var)
	if mu := s.guarded[fv]; ok && mu != nil && s.found != nil {
		if base, heldMode, short := shortfall(sel.X, mu, need, held); short {
			s.found(sel, base, fv, mu, need, heldMode)
		}
	}
}

func (s *lockSim) checkCall(call *ast.CallExpr, held heldSet) {
	obj := callee(s.pass.Info, call)
	if obj == nil {
		return
	}
	if s.onCall != nil {
		s.onCall(call, obj, held)
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || s.foundCall == nil {
		return
	}
	for _, req := range s.requires[obj] {
		if base, heldMode, short := shortfall(sel.X, req.mu, req.mode, held); short {
			s.foundCall(call, obj, base, req, heldMode)
		}
	}
}

// shortfall reports whether the path holds mu on base x at less than
// need, with the mode it does hold and x rendered for a message. A base
// that exprKey cannot key is never held.
func shortfall(x ast.Expr, mu *types.Var, need lockMode, held heldSet) (base string, heldMode lockMode, short bool) {
	key, keyable := exprKey(x)
	if !keyable {
		return types.ExprString(x), 0, true
	}
	heldMode = held[lockKey{key, mu}]
	return key, heldMode, heldMode < need
}
