// Package javaast defines the abstract syntax tree for the Java subset
// handled by the DiffCode analyzer: compilation units, type declarations,
// members, statements, and expressions. Nodes carry source positions so
// allocation sites can be identified by line (the paper's per-allocation-site
// heap abstraction labels abstract objects by statement label).
package javaast

import "repro/internal/javatok"

// Node is implemented by every AST node.
type Node interface {
	Pos() javatok.Pos
}

// ---------------------------------------------------------------------------
// Compilation units and declarations
// ---------------------------------------------------------------------------

// CompilationUnit is a single .java source file.
type CompilationUnit struct {
	Package string    // dotted package name, "" if absent
	Imports []*Import // import declarations in source order
	Types   []*TypeDecl
	P       javatok.Pos
}

func (n *CompilationUnit) Pos() javatok.Pos { return n.P }

// Import is a single import declaration.
type Import struct {
	Path     string // dotted path, without the trailing ".*"
	Wildcard bool   // import a.b.*;
	Static   bool   // import static a.b.C.m;
	P        javatok.Pos
}

func (n *Import) Pos() javatok.Pos { return n.P }

// TypeKind distinguishes class-like declarations.
type TypeKind int

// Type declaration kinds.
const (
	ClassKind TypeKind = iota
	InterfaceKind
	EnumKind
)

// TypeDecl is a class, interface, or enum declaration.
type TypeDecl struct {
	Kind       TypeKind
	Name       string
	Modifiers  []string
	Extends    string   // superclass (or first extended interface), "" if none
	Implements []string // implemented interfaces
	Fields     []*FieldDecl
	Methods    []*MethodDecl
	Nested     []*TypeDecl
	EnumConsts []string // for enums
	P          javatok.Pos
}

func (n *TypeDecl) Pos() javatok.Pos { return n.P }

// IsStatic reports whether the declaration has the static modifier.
func (n *TypeDecl) IsStatic() bool { return hasMod(n.Modifiers, "static") }

// FieldDecl is one declarator of a field declaration. A source declaration
// with several declarators ("Cipher enc, dec;") is split into several
// FieldDecls sharing the type.
type FieldDecl struct {
	Name      string
	Type      *TypeRef
	Modifiers []string
	Init      Expr // nil if absent
	P         javatok.Pos
}

func (n *FieldDecl) Pos() javatok.Pos { return n.P }

// IsStatic reports whether the field has the static modifier.
func (n *FieldDecl) IsStatic() bool { return hasMod(n.Modifiers, "static") }

// IsFinal reports whether the field has the final modifier.
func (n *FieldDecl) IsFinal() bool { return hasMod(n.Modifiers, "final") }

// MethodDecl is a method, constructor (Name == enclosing class name and
// IsConstructor set), or initializer block.
type MethodDecl struct {
	Name          string
	Modifiers     []string
	Params        []*Param
	ReturnType    *TypeRef // nil for constructors and initializer blocks
	Throws        []string
	Body          *Block // nil for abstract/native methods
	IsConstructor bool
	P             javatok.Pos

	locals localsCache // Locals, computed once
}

func (n *MethodDecl) Pos() javatok.Pos { return n.P }

// IsStatic reports whether the method has the static modifier.
func (n *MethodDecl) IsStatic() bool { return hasMod(n.Modifiers, "static") }

// Param is a formal method parameter.
type Param struct {
	Name     string
	Type     *TypeRef
	Variadic bool
	P        javatok.Pos
}

func (n *Param) Pos() javatok.Pos { return n.P }

// TypeRef is a reference to a type in source: a possibly-qualified name with
// an array dimension count. Generic arguments are parsed but erased, which
// matches the analyzer's untyped treatment of collections.
type TypeRef struct {
	Name string // "int", "String", "javax.crypto.Cipher"
	Dims int    // number of [] pairs
	P    javatok.Pos
}

func (n *TypeRef) Pos() javatok.Pos { return n.P }

// Base returns the unqualified simple name (last dotted segment).
func (n *TypeRef) Base() string {
	for i := len(n.Name) - 1; i >= 0; i-- {
		if n.Name[i] == '.' {
			return n.Name[i+1:]
		}
	}
	return n.Name
}

// String renders the type as it would appear in source, minus generics.
func (n *TypeRef) String() string {
	s := n.Name
	for i := 0; i < n.Dims; i++ {
		s += "[]"
	}
	return s
}

func hasMod(mods []string, m string) bool {
	for _, x := range mods {
		if x == m {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a { ... } statement sequence.
type Block struct {
	Stmts []Stmt
	P     javatok.Pos
}

// LocalVarDecl declares one local variable (multi-declarator statements are
// split, like fields).
type LocalVarDecl struct {
	Name string
	Type *TypeRef
	Init Expr // nil if absent
	P    javatok.Pos
}

// ExprStmt is an expression used as a statement (call, assignment, ...).
type ExprStmt struct {
	X Expr
	P javatok.Pos
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
	P    javatok.Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	P    javatok.Pos
}

// DoStmt is a do/while loop.
type DoStmt struct {
	Body Stmt
	Cond Expr
	P    javatok.Pos
}

// ForStmt is a classic for loop. Init holds declarations or expression
// statements; Post holds update expressions.
type ForStmt struct {
	Init []Stmt
	Cond Expr // nil if absent
	Post []Expr
	Body Stmt
	P    javatok.Pos
}

// ForEachStmt is an enhanced for loop.
type ForEachStmt struct {
	Var  *LocalVarDecl // Init is nil; the iteration variable
	Expr Expr
	Body Stmt
	P    javatok.Pos
}

// ReturnStmt returns from the enclosing method.
type ReturnStmt struct {
	X Expr // nil for bare return
	P javatok.Pos
}

// ThrowStmt throws an exception.
type ThrowStmt struct {
	X Expr
	P javatok.Pos
}

// TryStmt is try/catch/finally, including try-with-resources.
type TryStmt struct {
	Resources []*LocalVarDecl
	Body      *Block
	Catches   []*CatchClause
	Finally   *Block // nil if absent
	P         javatok.Pos
}

// CatchClause is one catch arm. Multi-catch types are all listed.
type CatchClause struct {
	Param *Param
	Types []string // additional multi-catch type names (beyond Param.Type)
	Body  *Block
	P     javatok.Pos
}

func (n *CatchClause) Pos() javatok.Pos { return n.P }

// SwitchStmt is a classic switch statement.
type SwitchStmt struct {
	Tag   Expr
	Cases []*SwitchCase
	P     javatok.Pos
}

// SwitchCase is one case (or default, when Values is empty) arm.
type SwitchCase struct {
	Values []Expr // empty means default
	Body   []Stmt
	P      javatok.Pos
}

func (n *SwitchCase) Pos() javatok.Pos { return n.P }

// BreakStmt breaks out of a loop or switch.
type BreakStmt struct {
	Label string
	P     javatok.Pos
}

// ContinueStmt continues a loop.
type ContinueStmt struct {
	Label string
	P     javatok.Pos
}

// SyncStmt is a synchronized block.
type SyncStmt struct {
	Lock Expr
	Body *Block
	P    javatok.Pos
}

// LabeledStmt is label: stmt.
type LabeledStmt struct {
	Label string
	Stmt  Stmt
	P     javatok.Pos
}

// AssertStmt is assert cond [: msg];
type AssertStmt struct {
	Cond Expr
	Msg  Expr // nil if absent
	P    javatok.Pos
}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct {
	P javatok.Pos
}

func (n *Block) Pos() javatok.Pos        { return n.P }
func (n *LocalVarDecl) Pos() javatok.Pos { return n.P }
func (n *ExprStmt) Pos() javatok.Pos     { return n.P }
func (n *IfStmt) Pos() javatok.Pos       { return n.P }
func (n *WhileStmt) Pos() javatok.Pos    { return n.P }
func (n *DoStmt) Pos() javatok.Pos       { return n.P }
func (n *ForStmt) Pos() javatok.Pos      { return n.P }
func (n *ForEachStmt) Pos() javatok.Pos  { return n.P }
func (n *ReturnStmt) Pos() javatok.Pos   { return n.P }
func (n *ThrowStmt) Pos() javatok.Pos    { return n.P }
func (n *TryStmt) Pos() javatok.Pos      { return n.P }
func (n *SwitchStmt) Pos() javatok.Pos   { return n.P }
func (n *BreakStmt) Pos() javatok.Pos    { return n.P }
func (n *ContinueStmt) Pos() javatok.Pos { return n.P }
func (n *SyncStmt) Pos() javatok.Pos     { return n.P }
func (n *LabeledStmt) Pos() javatok.Pos  { return n.P }
func (n *AssertStmt) Pos() javatok.Pos   { return n.P }
func (n *EmptyStmt) Pos() javatok.Pos    { return n.P }

func (*Block) stmtNode()        {}
func (*LocalVarDecl) stmtNode() {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*ForEachStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode()   {}
func (*ThrowStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*SwitchStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*SyncStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}
func (*AssertStmt) stmtNode()   {}
func (*EmptyStmt) stmtNode()    {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// LitKind classifies literal expressions.
type LitKind int

// Literal kinds.
const (
	IntLit LitKind = iota
	LongLit
	FloatLit
	DoubleLit
	CharLit
	StringLit
	BoolLit
	NullLit
)

// Literal is a literal constant. Value holds the source text for numeric
// literals, the decoded value for string/char literals, and "true"/"false"
// for booleans.
type Literal struct {
	Kind  LitKind
	Value string
	P     javatok.Pos
}

// Name is an unqualified identifier reference (variable, field, type, ...).
type Name struct {
	Ident string
	P     javatok.Pos
}

// FieldAccess is X.Name (also covers qualified names like Cipher.ENCRYPT_MODE
// and package-qualified types; disambiguation is the analyzer's job).
type FieldAccess struct {
	X    Expr
	Name string
	P    javatok.Pos
}

// Call is a method invocation. Recv is nil for unqualified calls.
type Call struct {
	Recv Expr // receiver or qualifier; nil for this-calls
	Name string
	Args []Expr
	P    javatok.Pos
}

// New is an object creation expression: new Type(args).
type New struct {
	Type *TypeRef
	Args []Expr
	// Body is non-nil for anonymous class bodies; its contents are parsed
	// but the analyzer treats the object as an opaque allocation.
	Body *TypeDecl
	P    javatok.Pos
}

// NewArray is an array creation: new T[len] or new T[]{...}.
type NewArray struct {
	Type    *TypeRef
	Lens    []Expr // dimension lengths; may be empty with initializer
	Elems   []Expr // initializer elements, nil if absent
	HasInit bool
	P       javatok.Pos
}

// ArrayInit is a bare { a, b, c } initializer (only valid in declarations).
type ArrayInit struct {
	Elems []Expr
	P     javatok.Pos
}

// Index is array indexing: X[I].
type Index struct {
	X Expr
	I Expr
	P javatok.Pos
}

// Binary is a binary operation, Op as spelled in source ("+", "==", ...).
type Binary struct {
	Op   string
	L, R Expr
	P    javatok.Pos
}

// Unary is a prefix unary operation; Postfix marks x++ / x--.
type Unary struct {
	Op      string
	X       Expr
	Postfix bool
	P       javatok.Pos
}

// Assign is an assignment; Op is "=", "+=", etc.
type Assign struct {
	Op   string
	L, R Expr
	P    javatok.Pos
}

// Cond is the ternary conditional c ? t : f.
type Cond struct {
	C, T, F Expr
	P       javatok.Pos
}

// Cast is (Type) X.
type Cast struct {
	Type *TypeRef
	X    Expr
	P    javatok.Pos
}

// InstanceOf is X instanceof Type.
type InstanceOf struct {
	X    Expr
	Type *TypeRef
	P    javatok.Pos
}

// This is the this reference.
type This struct {
	P javatok.Pos
}

// Super is the super reference (only as call qualifier).
type Super struct {
	P javatok.Pos
}

// ClassLit is Type.class.
type ClassLit struct {
	Type *TypeRef
	P    javatok.Pos
}

// Lambda is a lambda expression; the analyzer treats it as opaque.
type Lambda struct {
	Params []string
	// Body is either an Expr or a *Block; stored as Node.
	Body Node
	P    javatok.Pos
}

// MethodRef is a method reference like Type::method; treated as opaque.
type MethodRef struct {
	Recv Expr
	Name string
	P    javatok.Pos
}

func (n *Literal) Pos() javatok.Pos     { return n.P }
func (n *Name) Pos() javatok.Pos        { return n.P }
func (n *FieldAccess) Pos() javatok.Pos { return n.P }
func (n *Call) Pos() javatok.Pos        { return n.P }
func (n *New) Pos() javatok.Pos         { return n.P }
func (n *NewArray) Pos() javatok.Pos    { return n.P }
func (n *ArrayInit) Pos() javatok.Pos   { return n.P }
func (n *Index) Pos() javatok.Pos       { return n.P }
func (n *Binary) Pos() javatok.Pos      { return n.P }
func (n *Unary) Pos() javatok.Pos       { return n.P }
func (n *Assign) Pos() javatok.Pos      { return n.P }
func (n *Cond) Pos() javatok.Pos        { return n.P }
func (n *Cast) Pos() javatok.Pos        { return n.P }
func (n *InstanceOf) Pos() javatok.Pos  { return n.P }
func (n *This) Pos() javatok.Pos        { return n.P }
func (n *Super) Pos() javatok.Pos       { return n.P }
func (n *ClassLit) Pos() javatok.Pos    { return n.P }
func (n *Lambda) Pos() javatok.Pos      { return n.P }
func (n *MethodRef) Pos() javatok.Pos   { return n.P }

func (*Literal) exprNode()     {}
func (*Name) exprNode()        {}
func (*FieldAccess) exprNode() {}
func (*Call) exprNode()        {}
func (*New) exprNode()         {}
func (*NewArray) exprNode()    {}
func (*ArrayInit) exprNode()   {}
func (*Index) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Unary) exprNode()       {}
func (*Assign) exprNode()      {}
func (*Cond) exprNode()        {}
func (*Cast) exprNode()        {}
func (*InstanceOf) exprNode()  {}
func (*This) exprNode()        {}
func (*Super) exprNode()       {}
func (*ClassLit) exprNode()    {}
func (*Lambda) exprNode()      {}
func (*MethodRef) exprNode()   {}
