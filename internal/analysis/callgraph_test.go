package analysis

import "testing"

// findNode returns the call-graph node with the given qualified name.
func findNode(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name == name {
			return n
		}
	}
	for _, n := range prog.Nodes {
		t.Logf("  node %s", n.Name)
	}
	t.Fatalf("no node named %q", name)
	return nil
}

// edgeKinds collects the resolved targets of a node, keyed by edge kind.
func edgeTargets(n *FuncNode, kind EdgeKind) []string {
	var out []string
	for _, e := range n.Edges {
		if e.Kind != kind {
			continue
		}
		switch {
		case e.Callee != nil:
			out = append(out, e.Callee.Name)
		case e.Ext != nil:
			out = append(out, e.Ext.FullName())
		default:
			out = append(out, "<unresolved>")
		}
	}
	return out
}

func TestCallGraphEdgeKinds(t *testing.T) {
	pkgs := loadFixture(t, "callgraph")
	prog := BuildProgram(pkgs)

	total := findNode(t, prog, "cgfix/cg.Total")

	// CHA: the interface call resolves to both implementors, value and
	// pointer receiver.
	iface := edgeTargets(total, EdgeInterface)
	if len(iface) != 2 {
		t.Fatalf("interface edges = %v, want 2 (Square.Area and (*Rect).Area)", iface)
	}
	wantIface := map[string]bool{"cgfix/cg.Square.Area": true, "cgfix/cg.(*Rect).Area": true}
	for _, name := range iface {
		if !wantIface[name] {
			t.Errorf("unexpected CHA target %q", name)
		}
	}

	// op is assigned exactly once from a named function: funcvalue edge.
	if fv := edgeTargets(total, EdgeFuncValue); len(fv) != 1 || fv[0] != "cgfix/cg.add" {
		t.Errorf("funcvalue edges = %v, want [cgfix/cg.add]", fv)
	}

	// loose has its address taken, so the call through it is dynamic.
	if dyn := edgeTargets(total, EdgeDynamic); len(dyn) != 1 {
		t.Errorf("dynamic edges = %v, want exactly 1 (call through loose)", dyn)
	}

	// Make creates one literal, linked by a closure edge; the literal is a
	// node of its own attributed to Make.
	mk := findNode(t, prog, "cgfix/cg.Make")
	cl := edgeTargets(mk, EdgeClosure)
	if len(cl) != 1 {
		t.Fatalf("closure edges = %v, want 1", cl)
	}
	lit := findNode(t, prog, cl[0])
	if lit.Lit == nil || lit.Encl != mk {
		t.Errorf("literal node %s not attributed to Make", lit.Name)
	}
}

func TestCallGraphAnnotations(t *testing.T) {
	pkgs := loadFixture(t, "allocbudget_good")
	prog := BuildProgram(pkgs)

	step := findNode(t, prog, "abgood/kernel.(*state).Step")
	if !step.Hot {
		t.Errorf("Step not marked hot")
	}
	setup := findNode(t, prog, "abgood/kernel.Setup")
	if setup.Hot {
		t.Errorf("Setup wrongly marked hot")
	}

	// Reachability: accumulate is in Step's cone, Setup is not.
	reach := prog.HotReachable()
	acc := findNode(t, prog, "abgood/kernel.(*state).accumulate")
	if reach[acc] != step {
		t.Errorf("accumulate's hot witness = %v, want Step", reach[acc])
	}
	if _, ok := reach[setup]; ok {
		t.Errorf("cold Setup reported hot-reachable")
	}
}

// TestTerminalEdges pins the error-terminal rule: call sites inside panic
// arguments and non-nil-error returns are marked Terminal and do not extend
// hot reachability (an err.Error() in a panic message must not drag every
// error type's formatting code into the allocation budget).
func TestTerminalEdges(t *testing.T) {
	pkgs := loadFixture(t, "allocbudget_good")
	prog := BuildProgram(pkgs)

	validate := findNode(t, prog, "abgood/kernel.Validate")
	errFn := findNode(t, prog, "abgood/kernel.(*parseError).Error")

	terminal := 0
	for _, e := range validate.Edges {
		if e.Terminal {
			terminal++
		}
	}
	if terminal == 0 {
		t.Fatalf("Validate has no terminal edges; panic((&parseError{...}).Error()) should produce one")
	}

	hot := prog.HotReachable()
	if _, ok := hot[validate]; !ok {
		t.Errorf("Validate is not hot-reachable despite its annotation")
	}
	if _, ok := hot[errFn]; ok {
		t.Errorf("(*parseError).Error is hot-reachable; terminal edges must not extend the hot cone")
	}
}
