package netproto

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// opConstants parses netproto.go for the Op* string constants, so an op
// added there without a table entry fails TestOpTablePinned.
func opConstants(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "netproto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Op") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				ops[name.Name] = v
			}
		}
	}
	if len(ops) == 0 {
		t.Fatal("no Op* constants found in netproto.go")
	}
	return ops
}

// opsWhere lists the table's ops satisfying keep, sorted.
func opsWhere(keep func(OpSpec) bool) []string {
	var out []string
	for _, s := range opTable {
		if keep(s) {
			out = append(out, s.Op)
		}
	}
	slices.Sort(out)
	return out
}

func sorted(ops ...string) []string {
	slices.Sort(ops)
	return ops
}

// TestOpTablePinned pins the per-op facts the daemon, router, client
// library and binary codec read from the table: changing one is a
// protocol change, not a refactor.
func TestOpTablePinned(t *testing.T) {
	consts := opConstants(t)
	count := map[string]int{}
	for _, s := range opTable {
		count[s.Op]++
	}
	for name, op := range consts {
		if count[op] != 1 {
			t.Errorf("%s (%q) has %d table entries, want exactly 1", name, op, count[op])
		}
	}
	if len(opTable) != len(consts) {
		t.Errorf("table has %d entries for %d Op* constants", len(opTable), len(consts))
	}

	if got, want := opsWhere(func(s OpSpec) bool { return s.Stream }),
		sorted(OpWait, OpAcquire, OpSubscribe, OpFedWatch); !slices.Equal(got, want) {
		t.Errorf("stream ops = %v, want %v", got, want)
	}
	if got, want := opsWhere(func(s OpSpec) bool { return s.Replay }),
		sorted(OpPing, OpOpen, OpWait, OpEstWait, OpContexts, OpContextInfo, OpStats,
			OpBitrep, OpRescan, OpPrefetch, OpSchedGet); !slices.Equal(got, want) {
		t.Errorf("replayable ops = %v, want %v", got, want)
	}

	// The timed ops in stats-frame order: the daemon's latency list keeps
	// this order on the wire.
	if got, want := TimedOps(), []string{OpOpen, OpWait, OpRelease, OpAcquire, OpEstWait,
		OpPrefetch, OpSubscribe, OpFedWatch, OpStats, OpPing}; !slices.Equal(got, want) {
		t.Errorf("timed ops = %v, want %v", got, want)
	}

	// Binary opcodes are wire format: v3 peers and the committed fuzz
	// corpora depend on these exact bytes.
	wantCodes := map[string]byte{
		OpOpen: 1, OpWait: 2, OpRelease: 3, OpEstWait: 4, OpBitrep: 5,
		OpAcquire: 6, OpSubscribe: 7, OpPrefetch: 8, OpUnsubscribe: 9, OpPing: 10,
	}
	seen := map[byte]string{}
	for _, s := range opTable {
		if s.Opcode != wantCodes[s.Op] {
			t.Errorf("%s opcode = %d, want %d", s.Op, s.Opcode, wantCodes[s.Op])
		}
		if s.Opcode == 0 {
			continue
		}
		if prev, dup := seen[s.Opcode]; dup {
			t.Errorf("opcode %d shared by %s and %s", s.Opcode, prev, s.Op)
		}
		seen[s.Opcode] = s.Op
		if binOpNames[s.Opcode] != s.Op {
			t.Errorf("binOpNames[%d] = %q, want %q", s.Opcode, binOpNames[s.Opcode], s.Op)
		}
	}

	// Every op the router forwards by context names the body carrying
	// it; the router answers or fans out the rest itself.
	wantRoute := map[string]any{
		OpOpen: FileBody{}, OpWait: FileBody{}, OpRelease: FileBody{},
		OpEstWait: FileBody{}, OpBitrep: FileBody{},
		OpAcquire: FilesBody{}, OpPrefetch: FilesBody{}, OpSubscribe: FilesBody{}, OpFedWatch: FilesBody{},
		OpContextInfo: CtxBody{}, OpStats: CtxBody{}, OpRescan: CtxBody{}, OpDrain: CtxBody{},
		OpResume: CtxBody{}, OpCtxDeregister: CtxBody{}, OpQuarantineReset: CtxBody{},
		OpRegSum: ChecksumBody{}, OpCachePolicySet: CachePolicyBody{}, OpCtxRegister: CtxRegisterBody{},
	}
	for _, s := range opTable {
		if reflect.TypeOf(s.Route) != reflect.TypeOf(wantRoute[s.Op]) {
			t.Errorf("%s routes on %T, want %T", s.Op, s.Route, wantRoute[s.Op])
		}
	}

	if s := Spec("no-such-op"); s != (OpSpec{}) {
		t.Errorf("unknown op spec = %+v, want the zero OpSpec", s)
	}
}
