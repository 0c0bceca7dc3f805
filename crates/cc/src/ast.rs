//! Abstract syntax tree for the HeteroDoop C subset.
//!
//! The subset covers what the paper's MapReduce programs use (Listings 1
//! and 2 and the eight evaluation benchmarks): scalar and array
//! declarations, pointers, the usual expression operators, `while`/`for`/
//! `if`, function definitions and calls, and `#pragma mapreduce`
//! annotations attached to statements.

use crate::error::Span;
use crate::pragma::Directive;

/// C types in the subset. `long`, `unsigned`, and `size_t` are folded
/// into `Int`; `float` into `Double` for interpretation (codegen keeps
/// the original spelling via [`CType::c_name`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CType {
    /// `void`
    Void,
    /// `char`
    Char,
    /// Integer family.
    Int,
    /// `float`
    Float,
    /// `double`
    Double,
    /// Pointer to inner type.
    Ptr(Box<CType>),
    /// Array with optional compile-time length.
    Array(Box<CType>, Option<usize>),
}

impl CType {
    /// Whether this is an arithmetic scalar.
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            CType::Char | CType::Int | CType::Float | CType::Double
        )
    }

    /// Whether this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, CType::Array(..))
    }

    /// Element type for arrays/pointers.
    pub fn element(&self) -> Option<&CType> {
        match self {
            CType::Ptr(t) | CType::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Size of one element in bytes (as the paper's `keylength` would
    /// count it).
    pub fn scalar_size(&self) -> usize {
        match self {
            CType::Void => 0,
            CType::Char => 1,
            CType::Int => 4,
            CType::Float => 4,
            CType::Double => 8,
            CType::Ptr(_) => 8,
            CType::Array(t, n) => t.scalar_size() * n.unwrap_or(1),
        }
    }

    /// C spelling for code generation.
    pub fn c_name(&self) -> String {
        match self {
            CType::Void => "void".to_string(),
            CType::Char => "char".to_string(),
            CType::Int => "int".to_string(),
            CType::Float => "float".to_string(),
            CType::Double => "double".to_string(),
            CType::Ptr(t) => format!("{} *", t.c_name()),
            CType::Array(t, Some(n)) => format!("{}[{}]", t.c_name(), n),
            CType::Array(t, None) => format!("{}[]", t.c_name()),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `&x`
    AddrOf,
    /// `*x`
    Deref,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

/// Compound-assignment operators (`=` is `AssignOp::None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    None,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
}

/// Dense index of a *guard site* — an expression whose evaluation the
/// kernel engines guard at run time: a subscript (bounds), an integer
/// `/` or `%` (zero denominator), a call (argument dispatch). The
/// parser numbers the sites of each kind `0..n` in creation order
/// ([`Program::sites`] records the three `n`s), so a table indexed by
/// `SiteId` describes a program *and every clone of it* — see
/// [`crate::lint::absint::SafetyFacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Carried by `Binary` nodes whose operator cannot fault (everything
    /// but `/` and `%`); indexes no table.
    pub const NONE: SiteId = SiteId(u32::MAX);
}

/// How many guard sites of each kind the parser numbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteCounts {
    /// `Expr::Index` nodes.
    pub subscripts: u32,
    /// `Expr::Binary` nodes with `/` or `%`.
    pub divisions: u32,
    /// `Expr::Call` nodes.
    pub calls: u32,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// String literal.
    StrLit(String),
    /// Char literal.
    CharLit(u8),
    /// Variable reference.
    Ident(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Postfix `x++`.
    PostInc(Box<Expr>),
    /// Postfix `x--`.
    PostDec(Box<Expr>),
    /// Binary operation; the [`SiteId`] is a division site for `/` and
    /// `%` and [`SiteId::NONE`] otherwise.
    Binary(BinOp, Box<Expr>, Box<Expr>, SiteId),
    /// Assignment, possibly compound. Evaluates to the stored value
    /// (C semantics — the paper's listings rely on `(read = getline(..))`).
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// Ternary conditional.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function call (a call site).
    Call(String, Vec<Expr>, SiteId),
    /// Array indexing `a[i]` (possibly multi-dim via nesting; each
    /// nesting level is its own subscript site).
    Index(Box<Expr>, Box<Expr>, SiteId),
    /// Type cast.
    Cast(CType, Box<Expr>),
    /// `sizeof(type)`.
    SizeOf(CType),
}

impl Expr {
    /// The guard-site id this node carries ([`SiteId::NONE`] when it
    /// is not a guard site).
    pub fn site(&self) -> SiteId {
        match self {
            Expr::Binary(.., site) | Expr::Call(.., site) | Expr::Index(.., site) => *site,
            _ => SiteId::NONE,
        }
    }
}

/// One declarator within a declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Complete type of the declared name.
    pub ty: CType,
    /// Declared name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Variable declaration(s).
    Decl(Vec<Declarator>),
    /// Expression statement.
    Expr(Expr),
    /// `while (cond) body`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `for (init; cond; step) body`
    For {
        /// Optional init statement (decl or expr).
        init: Option<Box<Stmt>>,
        /// Optional condition (true when absent).
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `if (cond) then [else els]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Optional else branch.
        els: Option<Box<Stmt>>,
    },
    /// `return [expr];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// A statement annotated with a `#pragma mapreduce` directive; the
    /// directive index refers into [`Program::directives`].
    Annotated(usize, Box<Stmt>),
    /// Empty statement `;`.
    Empty,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement kind.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Return type.
    pub ret: CType,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(CType, String)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Functions, in source order. `main` is the MapReduce entry point.
    pub funcs: Vec<FuncDef>,
    /// All `#pragma mapreduce` directives found, referenced by
    /// [`StmtKind::Annotated`].
    pub directives: Vec<Directive>,
    /// Guard sites numbered while parsing; every [`SiteId`] in `funcs`
    /// is below its kind's count.
    pub(crate) sites: SiteCounts,
    /// FNV-1a hash of the source text this program was parsed from.
    pub(crate) fingerprint: u64,
}

impl Program {
    /// How many guard sites of each kind the program has.
    pub fn sites(&self) -> SiteCounts {
        self.sites
    }

    /// Content fingerprint of the source text. Clones share it; two
    /// different texts differ in it (up to a 64-bit hash collision).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Find a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The statement of `main` that directive `idx` annotates.
    pub fn region(&self, idx: usize) -> Option<&Stmt> {
        let mut found = None;
        walk_stmts(&self.func("main")?.body, &mut |s| {
            if let StmtKind::Annotated(i, inner) = &s.kind {
                if *i == idx {
                    found = Some(inner.as_ref());
                }
            }
        });
        found
    }
}

/// Walk all statements of a function (pre-order), calling `f` on each.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        walk_stmt(s, f);
    }
}

fn walk_stmt<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::While { body, .. } => walk_stmt(body, f),
        StmtKind::For { init, body, .. } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            walk_stmt(body, f);
        }
        StmtKind::If { then, els, .. } => {
            walk_stmt(then, f);
            if let Some(e) = els {
                walk_stmt(e, f);
            }
        }
        StmtKind::Block(v) => walk_stmts(v, f),
        StmtKind::Annotated(_, inner) => walk_stmt(inner, f),
        _ => {}
    }
}

/// Walk all expressions within a statement subtree (pre-order).
pub fn walk_exprs<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    walk_stmt(s, &mut |st| own_exprs(st, f));
}

/// Walk the expressions `s` owns directly (pre-order) — not those of the
/// statements nested in it.
pub fn own_exprs<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    let mut visit = |e: &'a Expr| walk_expr(e, f);
    match &s.kind {
        StmtKind::Decl(ds) => {
            for d in ds {
                if let Some(i) = &d.init {
                    visit(i);
                }
            }
        }
        StmtKind::Expr(e) => visit(e),
        StmtKind::While { cond, .. } => visit(cond),
        StmtKind::For { cond, step, .. } => {
            if let Some(c) = cond {
                visit(c);
            }
            if let Some(st) = step {
                visit(st);
            }
        }
        StmtKind::If { cond, .. } => visit(cond),
        StmtKind::Return(Some(e)) => visit(e),
        _ => {}
    }
}

/// Walk `e` and every expression under it (pre-order).
pub fn walk_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Unary(_, x) | Expr::PostInc(x) | Expr::PostDec(x) | Expr::Cast(_, x) => {
            walk_expr(x, f)
        }
        Expr::Binary(_, a, b, _) | Expr::Assign(_, a, b) | Expr::Index(a, b, _) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Cond(c, t, x) => {
            walk_expr(c, f);
            walk_expr(t, f);
            walk_expr(x, f);
        }
        Expr::Call(_, args, _) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctype_properties() {
        assert!(CType::Int.is_scalar());
        assert!(!CType::Ptr(Box::new(CType::Char)).is_scalar());
        let arr = CType::Array(Box::new(CType::Char), Some(30));
        assert!(arr.is_array());
        assert_eq!(arr.scalar_size(), 30);
        assert_eq!(arr.element(), Some(&CType::Char));
        assert_eq!(CType::Double.scalar_size(), 8);
    }

    #[test]
    fn c_name_round_trips_shapes() {
        assert_eq!(CType::Ptr(Box::new(CType::Char)).c_name(), "char *");
        assert_eq!(
            CType::Array(Box::new(CType::Int), Some(4)).c_name(),
            "int[4]"
        );
    }
}
