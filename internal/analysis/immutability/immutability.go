// Package immutability implements the cosmosvet analyzer that treats a
// message handed to a send path as frozen.
//
// The network and the reliable transport retain sent messages: the
// network carries each one inside its delivery event, and the
// transport buffers them for retransmission. A sender that mutates a
// message variable after passing it to Send/SendPacket is therefore
// writing to state the interconnect may still read — exactly the
// forwarded-data-racing-post-ack-writes bug class the fault-injection
// work had to chase.
// Because coherence.Msg is currently a small value struct the race is
// latent rather than live, but the invariant keeps it that way as the
// message grows reference fields (payload slices, ack lists).
//
// Within the simulation core, for every call to a method named Send or
// SendPacket whose argument is a named-struct variable (or a field
// selection like o.msg), any later write in the same function to that
// variable or anything reachable through it is flagged:
//
//	nw.Send(msg)
//	msg.Addr = 0        // flagged
//	msg.Grant++         // flagged
//
// Reinitializing the whole variable for an unrelated next message is
// legitimate in principle but indistinguishable from a post-send
// mutation; write to a fresh variable, or suppress a true reuse with
// //cosmosvet:allow immutability <reason>.
package immutability

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cosmos-coherence/cosmos/internal/analysis"
)

// Analyzer is the message-immutability check.
var Analyzer = &analysis.Analyzer{
	Name: "immutability",
	Doc:  "forbid mutating a message after it was handed to a send path",
	Run:  run,
}

// sendNames are the send-path entry points: stache.Sender.Send,
// network.Network.Send/SendPacket, reliable.Transport.Send.
var sendNames = map[string]bool{"Send": true, "SendPacket": true}

func run(pass *analysis.Pass) error {
	if !analysis.InSimulationCore(pass.ModulePath, pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// sentValue tracks one message argument observed flowing into a send
// call: the chain of objects naming it (msg -> [msg], o.msg -> [o,
// msg-field]) and where the send happened.
type sentValue struct {
	chain    []types.Object
	display  string
	sendName string
	sendEnd  int
}

// checkFunc finds send calls and post-send writes within one function.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var sent []sentValue
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sendNames[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
		if !ok {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return true
		}
		arg := call.Args[0]
		if !isNamedStruct(pass.TypesInfo.TypeOf(arg)) {
			return true
		}
		if chain, display, ok := selectorChain(pass, arg); ok {
			sent = append(sent, sentValue{
				chain:    chain,
				display:  display,
				sendName: sel.Sel.Name,
				sendEnd:  int(call.End()),
			})
		}
		return true
	})
	if len(sent) == 0 {
		return
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, sent, lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			checkWrite(pass, sent, n.X, n.Pos())
		}
		return true
	})
}

// checkWrite flags lhs if it writes to (or through) a value already
// handed to a send path earlier in the function.
func checkWrite(pass *analysis.Pass, sent []sentValue, lhs ast.Expr, pos token.Pos) {
	chain, display, ok := selectorChain(pass, lhs)
	if !ok {
		return
	}
	for _, sv := range sent {
		if int(pos) <= sv.sendEnd {
			continue
		}
		if chainHasPrefix(chain, sv.chain) {
			pass.Reportf(pos,
				"%s is written after %s was handed to %s; the interconnect retains sent messages for delivery and retransmission — build a fresh message instead",
				display, sv.display, sv.sendName)
			return
		}
	}
}

// selectorChain resolves an expression of the form ident or
// ident.sel1.sel2... into its object chain. Anything else (index
// expressions, calls, pointers derefs) is not tracked.
func selectorChain(pass *analysis.Pass, e ast.Expr) (chain []types.Object, display string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if _, isVar := obj.(*types.Var); !isVar {
			return nil, "", false
		}
		return []types.Object{obj}, e.Name, true
	case *ast.SelectorExpr:
		base, baseName, ok := selectorChain(pass, e.X)
		if !ok {
			return nil, "", false
		}
		obj := pass.TypesInfo.ObjectOf(e.Sel)
		if obj == nil {
			return nil, "", false
		}
		return append(base, obj), baseName + "." + e.Sel.Name, true
	}
	return nil, "", false
}

// chainHasPrefix reports whether write targets the sent value or a
// field reachable through it: the shorter chain must prefix the
// longer in either direction (writing msg after sending msg.Field
// also invalidates the sent field).
func chainHasPrefix(write, sent []types.Object) bool {
	n := len(write)
	if len(sent) < n {
		n = len(sent)
	}
	for i := 0; i < n; i++ {
		if write[i] != sent[i] {
			return false
		}
	}
	return true
}

// isNamedStruct reports whether t is a named struct type (the shape of
// coherence.Msg and network.Packet).
func isNamedStruct(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	_, ok = named.Underlying().(*types.Struct)
	return ok
}
