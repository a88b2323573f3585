// Package jir is a tiny structured intermediate representation and
// compiler targeting the substrate bytecode.
//
// The paper's six benchmark programs are authored in this IR (package
// apps) and compiled to classfiles, so their dynamic behaviour — first-use
// orders, per-method executed bytes, instruction counts — is measured by
// actually running them in the VM rather than synthesized. The IR is
// deliberately small: 64-bit integer scalars, integer arrays, static
// fields, structured control flow, and direct static calls, which is all
// the workloads need and all the ISA supports.
package jir

import "fmt"

// BinOp enumerates binary operators. Comparison operators yield 0/1 when
// used as values and fuse into conditional branches when used as an If or
// While condition.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// IsCompare reports whether the operator is relational.
func (op BinOp) IsCompare() bool { return op >= OpEq }

func (op BinOp) String() string {
	names := [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"==", "!=", "<", "<=", ">", ">="}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Expr is an expression node.
type Expr interface{ isExpr() }

// ConstExpr is an integer literal.
type ConstExpr struct{ V int64 }

// LocalExpr reads a local variable.
type LocalExpr struct{ Name string }

// GlobalExpr reads a static field Class.Field.
type GlobalExpr struct{ Class, Field string }

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	A, B Expr
}

// NegExpr negates its operand.
type NegExpr struct{ A Expr }

// NotExpr is logical negation: 1 if A is zero, else 0.
type NotExpr struct{ A Expr }

// CallExpr invokes Class.Func with Args. Usable as a statement via Do.
type CallExpr struct {
	Class, Func string
	Args        []Expr
}

// IndexExpr reads Arr[I].
type IndexExpr struct{ Arr, I Expr }

// LenExpr reads the length of an array.
type LenExpr struct{ Arr Expr }

// NewArrExpr allocates a zeroed integer array of length N.
type NewArrExpr struct{ N Expr }

// StrExpr materializes the bytes of S as a fresh integer array at run
// time. It compiles to an LDC of a String constant, so string data lives
// in the constant pool — the dominant global-data category in real class
// files (Table 8).
type StrExpr struct{ S string }

func (ConstExpr) isExpr()  {}
func (LocalExpr) isExpr()  {}
func (GlobalExpr) isExpr() {}
func (BinExpr) isExpr()    {}
func (NegExpr) isExpr()    {}
func (NotExpr) isExpr()    {}
func (CallExpr) isExpr()   {}
func (IndexExpr) isExpr()  {}
func (LenExpr) isExpr()    {}
func (NewArrExpr) isExpr() {}
func (StrExpr) isExpr()    {}

// Stmt is a statement node.
type Stmt interface{ isStmt() }

// LetStmt assigns to a local, declaring it on first use.
type LetStmt struct {
	Name string
	E    Expr
}

// SetGlobalStmt writes a static field.
type SetGlobalStmt struct {
	Class, Field string
	E            Expr
}

// SetIndexStmt writes Arr[I] = V.
type SetIndexStmt struct{ Arr, I, V Expr }

// IfStmt branches on Cond.
type IfStmt struct {
	Cond       Expr
	Then, Else []Stmt
}

// WhileStmt loops while Cond is true.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// ForStmt is the classic three-clause loop; Init and Post may be nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body []Stmt
}

// RetStmt returns E (nil for void).
type RetStmt struct{ E Expr }

// DoStmt evaluates E for effect, discarding any result.
type DoStmt struct{ E Expr }

// IncStmt increments a local by one (compiles to IINC).
type IncStmt struct{ Name string }

// HaltStmt stops the machine; only valid in the program's main.
type HaltStmt struct{}

func (LetStmt) isStmt()       {}
func (SetGlobalStmt) isStmt() {}
func (SetIndexStmt) isStmt()  {}
func (IfStmt) isStmt()        {}
func (WhileStmt) isStmt()     {}
func (ForStmt) isStmt()       {}
func (RetStmt) isStmt()       {}
func (DoStmt) isStmt()        {}
func (IncStmt) isStmt()       {}
func (HaltStmt) isStmt()      {}

// Constructors, shaped for terse workload authoring.

// I is an integer literal.
func I(v int64) Expr { return ConstExpr{V: v} }

// L reads local name.
func L(name string) Expr { return LocalExpr{Name: name} }

// G reads static field class.field.
func G(class, field string) Expr { return GlobalExpr{Class: class, Field: field} }

// Str materializes the bytes of s as an array.
func Str(s string) Expr { return StrExpr{S: s} }

// Binary operator constructors.
func Add(a, b Expr) Expr { return BinExpr{Op: OpAdd, A: a, B: b} }
func Sub(a, b Expr) Expr { return BinExpr{Op: OpSub, A: a, B: b} }
func Mul(a, b Expr) Expr { return BinExpr{Op: OpMul, A: a, B: b} }
func Div(a, b Expr) Expr { return BinExpr{Op: OpDiv, A: a, B: b} }
func Rem(a, b Expr) Expr { return BinExpr{Op: OpRem, A: a, B: b} }
func And(a, b Expr) Expr { return BinExpr{Op: OpAnd, A: a, B: b} }
func Or(a, b Expr) Expr  { return BinExpr{Op: OpOr, A: a, B: b} }
func Xor(a, b Expr) Expr { return BinExpr{Op: OpXor, A: a, B: b} }
func Shl(a, b Expr) Expr { return BinExpr{Op: OpShl, A: a, B: b} }
func Shr(a, b Expr) Expr { return BinExpr{Op: OpShr, A: a, B: b} }
func Eq(a, b Expr) Expr  { return BinExpr{Op: OpEq, A: a, B: b} }
func Ne(a, b Expr) Expr  { return BinExpr{Op: OpNe, A: a, B: b} }
func Lt(a, b Expr) Expr  { return BinExpr{Op: OpLt, A: a, B: b} }
func Le(a, b Expr) Expr  { return BinExpr{Op: OpLe, A: a, B: b} }
func Gt(a, b Expr) Expr  { return BinExpr{Op: OpGt, A: a, B: b} }
func Ge(a, b Expr) Expr  { return BinExpr{Op: OpGe, A: a, B: b} }

// Neg negates a.
func Neg(a Expr) Expr { return NegExpr{A: a} }

// Call invokes class.fn(args...).
func Call(class, fn string, args ...Expr) Expr {
	return CallExpr{Class: class, Func: fn, Args: args}
}

// Idx reads arr[i]; ALen reads len(arr); NewArr allocates.
func Idx(arr, i Expr) Expr { return IndexExpr{Arr: arr, I: i} }
func ALen(arr Expr) Expr   { return LenExpr{Arr: arr} }
func NewArr(n Expr) Expr   { return NewArrExpr{N: n} }

// Statement constructors.

// Let assigns local name (declaring it if new).
func Let(name string, e Expr) Stmt { return LetStmt{Name: name, E: e} }

// SetG writes static field class.field.
func SetG(class, field string, e Expr) Stmt {
	return SetGlobalStmt{Class: class, Field: field, E: e}
}

// SetIdx writes arr[i] = v.
func SetIdx(arr, i, v Expr) Stmt { return SetIndexStmt{Arr: arr, I: i, V: v} }

// If branches; Else may be nil.
func If(cond Expr, then, els []Stmt) Stmt { return IfStmt{Cond: cond, Then: then, Else: els} }

// While loops while cond holds.
func While(cond Expr, body []Stmt) Stmt { return WhileStmt{Cond: cond, Body: body} }

// For is the three-clause loop.
func For(init Stmt, cond Expr, post Stmt, body []Stmt) Stmt {
	return ForStmt{Init: init, Cond: cond, Post: post, Body: body}
}

// Ret returns e; RetV returns void.
func Ret(e Expr) Stmt { return RetStmt{E: e} }
func RetV() Stmt      { return RetStmt{} }

// Do evaluates e for effect.
func Do(e Expr) Stmt { return DoStmt{E: e} }

// Inc increments local name by one.
func Inc(name string) Stmt { return IncStmt{Name: name} }

// Halt stops the machine.
func Halt() Stmt { return HaltStmt{} }

// Block is a convenience for composing statement slices.
func Block(ss ...Stmt) []Stmt { return ss }

// Func is one method-to-be.
type Func struct {
	Name   string
	Params []string
	NRet   int
	Body   []Stmt

	// LocalData is the size in bytes of the method's opaque local-data
	// blob (models literal/exception/line tables). Generated
	// deterministically from the method's identity.
	LocalData int
}

// Class describes one class file to compile.
type Class struct {
	Name       string
	Super      string
	Interfaces []string
	Fields     []string
	Funcs      []*Func

	// UnusedStrings and UnusedInts are interned into the constant pool
	// but never referenced by code; real compilers leave such entries
	// and Table 9 reports them ("% Globals Unused").
	UnusedStrings []string
	UnusedInts    []int64

	// Attrs become class attributes (e.g. SourceFile).
	Attrs []Attr
}

// Attr is a named class attribute.
type Attr struct {
	Name string
	Data []byte
}

// Program is a complete IR program.
type Program struct {
	Name    string
	Main    string // class containing func "main"
	Classes []*Class
}
