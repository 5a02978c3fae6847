package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedSurfaceAllow lists the exported names that may stay without a
// non-test caller, each with the reason it stays. A row whose name is
// gone, or which now has a non-test caller, fails the census, so the
// list cannot rot.
var exportedSurfaceAllow = map[string]string{
	// The benchmark module's own callers: bench/ changes only with the
	// benchmark.
	"core.PortControl.Config":      "bench/ladder.go reads the controller's tick interval",
	"runner.Stats.AllocsPerRun":    "bench/daemonlayers.go reports runner.mallocs_per_run with it",
	"scenario.GraphNet.ShardStats": "bench/sims.go reads the shard layer's accounting",
	"scenario.TCPNet.TrunkDrops":   "bench/sims.go puts each trunk's drops in the tcp_timers data fingerprint",
	"sim.EventRef.Cancel":          "bench/ladder.go cancels events in the cancel rung",
	"sim.WithScheduler":            "bench/ladder.go builds the hold ladder's wheel and heap engines",

	// Client halves of endpoints the daemon serves; serve's tests drive
	// the endpoints through them.
	"api.Client.Cancel": "the Go spelling of DELETE /v1/jobs/{id}",
	"api.Client.Job":    "the Go spelling of GET /v1/jobs/{id}",
	"api.Client.Jobs":   "the Go spelling of GET /v1/jobs",

	// Read by tests in other packages, which an export_test.go cannot
	// serve.
	"atmnet.Link.Lost":              "scenario's TestPhantomSurvivesCellLoss checks loss injection destroyed cells",
	"atmnet.Link.QueueCap":          "ring's FIFO integration tests pin the link queue's capacity",
	"ip.Port.QueueCap":              "ring's FIFO integration tests pin the port queue's capacity",
	"interop.IngressEdge.CellsSent": "scenario's TCP-over-ATM determinism test compares it across reruns",
	"metrics.Clock.Held":            "scenario's TestSeriesStorageFollowsPoints sums the sampled series' storage",
	"metrics.Series.Held":           "scenario's TestSeriesStorageFollowsPoints sums the sampled series' storage and counts their clocks",
	"sim.Pipe.Wire":                 "the atmnet and ip band-sharing tests read which band a pipe's deliveries ride",
	"tcp.Receiver.AcksSent":         "TestTCPEventIdentity and TestRecycleIsInvisible fingerprint it; both stay as recorded",
	"tcp.Sender.AckedBytes":         "TestRecycleIsInvisible fingerprints it; the test stays as recorded",
	"tcp.Sender.Quenches":           "scenario's TestQuenchDeliveryPath checks a quench reached its sender",
	"runner.SnapResult":             "shard_golden_test.go compares sharded and single-engine runs through it; the file stays as recorded",
	"runner.Snapshot.Duration":      "shard_golden_test.go runs each experiment for its golden's duration; the file stays as recorded",

	// The run loop's stop flag cannot live in a test file.
	"sim.Engine.Stop": "ends a run between two events of one instant; FuzzSchedulerOrder and the heap tests reach the run loop's resume states (an open lazy-pop hole, armed bands) through it",
}

// fieldCensusAllow lists the struct fields that may stay without a
// non-test read, each naming its reader. The same staleness rules hold
// as for exportedSurfaceAllow.
var fieldCensusAllow = map[string]string{
	"atm.Cell.SentAt":               "scenario's TestPerVCInOrderDelivery and interop's TestIngressSegmentsAndPaces read each cell's send time",
	"scenario.InteropNet.Senders":   "ip's TestRecycleIsInvisible fingerprints the cloud's senders; the test stays as recorded",
	"scenario.InteropNet.Receivers": "ip's TestRecycleIsInvisible fingerprints the cloud's receivers; the test stays as recorded",
}

// TestExportedSurface is the exported-surface census: every exported
// func, method, interface method, type, const and var declared under
// internal/ and cmd/ needs a caller outside the test files, or a row in
// exportedSurfaceAllow saying why it stays. In the same pass it is the
// field census: every named struct type's fields there, exported or
// not, need a read outside the test files (a write is not a read; see
// fieldWrites), a struct tag (its encoder reads it), or a row in
// fieldCensusAllow. Every package is type-checked from source once, and
// the bench/ module's files count as callers and readers.
func TestExportedSurface(t *testing.T) {
	pkgs := goListDeps(t, "./internal/...", "./cmd/...", "./examples/...", ".")
	bench, err := filepath.Glob("bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var benchFiles []string
	for _, f := range bench {
		if !strings.HasSuffix(f, "_test.go") {
			benchFiles = append(benchFiles, f)
		}
	}
	pkgs = append(pkgs, listedPackage{ImportPath: "repro/bench", GoFiles: benchFiles, bench: true})

	r := surfaceCensus(t, pkgs, func(path string) bool {
		return strings.HasPrefix(path, "repro/internal/") || strings.HasPrefix(path, "repro/cmd/")
	}, exportedSurfaceAllow, fieldCensusAllow)
	t.Logf("censused %d exported names and %d struct fields", r.names, r.fields)
	for _, a := range r.allowed {
		t.Logf("allowlisted: %s", a)
	}
	for _, p := range r.problems {
		t.Error(p)
	}
}

// TestExportedSurfaceCensus plants each case the census must tell apart
// in testdata/surface, a module-internal tree that go build ./... never
// builds.
func TestExportedSurfaceCensus(t *testing.T) {
	pkgs := goListDeps(t, "./testdata/surface/...")
	allow := map[string]string{
		"testdata/surface/p.Gone":     "planted: names nothing",
		"testdata/surface/p.Called":   "planted: has a non-test caller",
		"testdata/surface/p.NoReason": " ",
	}
	fieldAllow := map[string]string{
		"testdata/surface/p.Fields.read": "planted: has a non-test read",
	}
	r := surfaceCensus(t, pkgs, func(path string) bool {
		return path == "repro/testdata/surface/p"
	}, allow, fieldAllow)
	problems := r.problems
	want := []string{
		"testdata/surface/p.Called",          // allowlisted, but called
		"testdata/surface/p.Fields.appended", // only appended to itself
		"testdata/surface/p.Fields.read",     // allowlisted, but read
		"testdata/surface/p.Fields.summed",   // only +='d and ++'d
		"testdata/surface/p.Fields.tested",   // read only in p_test.go
		"testdata/surface/p.Fields.written",  // only assigned and keyed
		"testdata/surface/p.Gone",            // allowlisted, but not declared
		"testdata/surface/p.NoReason",        // allowlisted without a reason
		"testdata/surface/p.OnlyTested",      // called only from p_test.go
		"testdata/surface/p.Unused",          // no caller at all
	}
	if len(problems) != len(want) {
		t.Fatalf("census found %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w+" ") {
			t.Errorf("problem %d = %q, want one naming %s", i, problems[i], w)
		}
	}
}

// listedPackage is the part of `go list -json` the census reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool

	bench bool // the benchmark module: its uses count, as bench/'s
}

// goListDeps lists patterns and their dependencies, dependencies first.
func goListDeps(t *testing.T, patterns ...string) []listedPackage {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps", "-json"}, patterns...)...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("go list: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			for i, f := range p.GoFiles {
				p.GoFiles[i] = filepath.Join(p.Dir, f)
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// methodsAlwaysUsed are the method names the standard library finds by
// dynamic interface checks (fmt, errors, encoding/json, io.Copy), so
// no caller in the tree ever names them.
var methodsAlwaysUsed = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "WriteTo": true,
}

// censusReport is what surfaceCensus finds.
type censusReport struct {
	// problems has one line per censused name without a non-test
	// caller, per censused field without a non-test read, and per stale
	// or reason-less allowlist row, sorted by name.
	problems []string
	// allowed has one "name — reason" line per allowlist row that held.
	allowed []string
	// names and fields count what was censused.
	names, fields int
}

// surfaceCensus type-checks pkgs (listed dependencies first) and censuses
// the exported names (against allow) and struct fields (against
// fieldAllow) that the packages censused says are counted declare.
func surfaceCensus(t *testing.T, pkgs []listedPackage, censused func(path string) bool, allow, fieldAllow map[string]string) censusReport {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type decl struct {
		name string
		pos  token.Pos
		// uses inside [start, end) are the name's own declaration
		start, end token.Pos
	}
	decls := map[types.Object]*decl{}
	// used holds each name's first caller and read each field's first
	// read; one in bench/ is replaced by any other. A zero pos is a use
	// only the standard library makes: a struct tag's encoder, or a
	// method it finds dynamically.
	type use struct {
		pos   token.Pos
		bench bool
	}
	used, read := map[types.Object]use{}, map[types.Object]use{}
	mark := func(m map[types.Object]use, o types.Object, u use) {
		if old, ok := m[o]; !ok || old.bench && !u.bench {
			m[o] = u
		}
	}
	recvIdents := map[*ast.Ident]bool{}
	type checkedInfo struct {
		*types.Info
		bench bool
	}
	var infos []checkedInfo
	// fields are the censused struct fields; writes are the uses of
	// fields that fieldWrites finds.
	type field struct {
		name   string
		pos    token.Pos
		tagged bool
	}
	fields := map[*types.Var]*field{}
	writes := map[*ast.Ident]bool{}
	// origin maps a method of an instantiated generic type, or of an
	// instantiated generic interface, to its declaration.
	origin := func(o types.Object) types.Object {
		if f, ok := o.(*types.Func); ok {
			return f.Origin()
		}
		return o
	}

	for _, lp := range pkgs {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		infos = append(infos, checkedInfo{info, lp.bench})
		for _, f := range files {
			fieldWrites(info, f, writes)
		}
		if !censused(lp.ImportPath) {
			continue
		}
		prefix := strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, "repro/internal/"), "repro/")
		// Every named struct type's fields, nested struct types' fields
		// under their field's name. Embedded fields are used through what
		// they promote, and blank ones are padding: neither is censused.
		var addFields func(name string, typ ast.Expr)
		addFields = func(name string, typ ast.Expr) {
			ast.Inspect(typ, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.Name == "_" {
							continue
						}
						fields[info.Defs[id].(*types.Var)] = &field{name + "." + id.Name, id.Pos(), fl.Tag != nil}
						addFields(name+"."+id.Name, fl.Type)
					}
				}
				return false
			})
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					addFields(prefix+"."+ts.Name.Name, ts.Type)
				}
				return true
			})
		}
		add := func(id *ast.Ident, name string, start, end token.Pos) {
			if o := info.Defs[id]; o != nil && id.IsExported() {
				decls[o] = &decl{prefix + "." + name, id.Pos(), start, end}
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
						recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if p, ok := recv.(*types.Pointer); ok {
							recv = p.Elem()
						}
						name = recv.(*types.Named).Obj().Name() + "." + name
					}
					add(d.Name, name, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s.Pos(), s.End())
							it, ok := s.Type.(*ast.InterfaceType)
							if !ok || !s.Name.IsExported() {
								continue
							}
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, s.Name.Name+"."+id.Name, m.Pos(), m.End())
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	// Direct uses: a reference outside the name's own declaration. A
	// method's receiver is part of its type's declaration. A field's use
	// is a read unless fieldWrites says it is a write.
	for _, info := range infos {
		for id, o := range info.Uses {
			if v, ok := o.(*types.Var); ok && fields[v.Origin()] != nil && !writes[id] {
				// A read in bench/ is a read: the field stays for as
				// long as the benchmark reads it, with no row to say so.
				mark(read, v.Origin(), use{id.Pos(), false})
			}
			if recvIdents[id] {
				continue
			}
			o = origin(o)
			if d := decls[o]; d != nil && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			mark(used, o, use{id.Pos(), info.bench})
		}
	}
	// Dynamic uses: a method that implements a used method of an
	// interface, instantiated generic interfaces included, is called
	// through it. An interface the census does not declare (the standard
	// library's, an interface literal) has every method used.
	var ifaces []*types.Interface
	var concrete []types.Type
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch t := typ.(type) {
		case *types.Named:
			if !types.IsInterface(t) && t.Obj().Pkg() != nil && t.TypeParams().Len() == t.TypeArgs().Len() {
				concrete = append(concrete, t)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Interface:
			ifaces = append(ifaces, t)
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		}
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			walk(tv.Type)
		}
		for _, o := range info.Defs {
			if o != nil {
				walk(o.Type())
			}
		}
		for _, o := range info.Uses {
			walk(o.Type())
		}
	}
	ifaceUse := func(m *types.Func) (use, bool) {
		if _, ok := decls[m.Origin()]; !ok {
			return use{m.Pos(), false}, true
		}
		u, ok := used[m.Origin()]
		return u, ok
	}
	for _, iface := range ifaces {
		if iface.NumMethods() == 0 {
			continue
		}
		for _, c := range concrete {
			var recv types.Type
			switch {
			case types.Implements(c, iface):
				recv = c
			case types.Implements(types.NewPointer(c), iface):
				recv = types.NewPointer(c)
			default:
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				u, ok := ifaceUse(m)
				if !ok {
					continue
				}
				if o, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); o != nil {
					mark(used, origin(o), u)
				}
			}
		}
	}

	wd, _ := os.Getwd()
	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
		return p.String()
	}
	// A censused name or field is judged by whether non-test code uses it
	// (a name only bench/ calls needs a row, since bench/ changes only
	// with the benchmark) and by its allowlist row.
	var r censusReport
	judge := func(name, where, kind string, u use, isUsed bool, allow map[string]string) {
		reason, listed := allow[name]
		switch {
		case listed && isUsed && !u.bench:
			by := "the standard library"
			if u.pos != token.NoPos {
				by = at(u.pos)
			}
			r.problems = append(r.problems, fmt.Sprintf("%s (%s): stale allowlist row, the %s has a non-test use (%s); delete the row", name, where, kind, by))
		case listed && strings.TrimSpace(reason) == "":
			r.problems = append(r.problems, fmt.Sprintf("%s (%s): allowlist row gives no reason", name, where))
		case listed:
			r.allowed = append(r.allowed, name+" — "+reason)
		case !isUsed && kind == "name":
			r.problems = append(r.problems, fmt.Sprintf("%s (%s): exported, but no non-test code refers to it; delete it, unexport it, or allowlist it with a reason", name, where))
		case !isUsed:
			r.problems = append(r.problems, fmt.Sprintf("%s (%s): no non-test code reads it; delete it with what only fills it, or allowlist it naming its reader", name, where))
		case u.bench:
			r.problems = append(r.problems, fmt.Sprintf("%s (%s): only bench/ uses it (%s); allowlist it with a reason, since bench/ changes only with the benchmark", name, where, at(u.pos)))
		}
	}
	stale := func(allow map[string]string, declared map[string]bool) {
		for name := range allow {
			if !declared[name] {
				r.problems = append(r.problems, name+" (allowlist): stale row, nothing by that name is declared; delete the row")
			}
		}
	}

	declared := map[string]bool{}
	for o, d := range decls {
		declared[d.name] = true
		u, isUsed := used[o]
		if f, ok := o.(*types.Func); ok && methodsAlwaysUsed[f.Name()] && f.Type().(*types.Signature).Recv() != nil {
			u, isUsed = use{}, true
		}
		judge(d.name, at(d.pos), "name", u, isUsed, allow)
	}
	stale(allow, declared)
	r.names = len(decls)

	declared = map[string]bool{}
	for v, f := range fields {
		declared[f.name] = true
		u, isRead := read[v]
		if f.tagged {
			u, isRead = use{}, true
		}
		judge(f.name, at(f.pos), "field", u, isRead, fieldAllow)
	}
	stale(fieldAllow, declared)
	r.fields = len(fields)

	sort.Strings(r.problems)
	sort.Strings(r.allowed)
	return r
}

// fieldWrites adds to writes the selector identifiers in f that only
// write a field: the whole left side of = or op=, the operand of ++ or
// --, a composite-literal key, and the first argument of an append
// whose result is assigned back to that same expression. Every other
// use of a field reads it.
func fieldWrites(info *types.Info, f *ast.File, writes map[*ast.Ident]bool) {
	sel := func(e ast.Expr) *ast.Ident {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return s.Sel
		}
		return nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, lhs := range n.Lhs {
				id := sel(lhs)
				if id == nil {
					continue
				}
				writes[id] = true
				if len(n.Rhs) != len(n.Lhs) {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[fn].(*types.Builtin); ok && b.Name() == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						if arg := sel(call.Args[0]); arg != nil {
							writes[arg] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id := sel(n.X); id != nil {
				writes[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		}
		return true
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
