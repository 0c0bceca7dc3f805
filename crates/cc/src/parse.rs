//! Recursive-descent parser for the HeteroDoop C subset.

use crate::ast::*;
use crate::error::{CcError, Span};
use crate::lex::{lex, Tok, Token};
use crate::pragma::parse_pragma;

/// How deep a statement or expression tree may nest. Parsing, analysis,
/// lowering and the tree-walking interpreter all recurse over the tree,
/// and kernels are built and run on pool workers with 2 MiB stacks: past
/// this depth the parser returns a [`CcError::Parse`] instead of letting a
/// later phase overflow the stack. A left-deep operator chain (`1+1+…`) is
/// built in a loop but walked recursively, so each operator counts. An
/// unoptimized parser takes about 14 KiB of stack a level of nested
/// parentheses or blocks, so 100 levels fit a worker's stack with room to
/// spare (`tests/nesting.rs` runs every shape at the bound on one).
pub const MAX_NESTING: u32 = 100;

/// Parse a complete annotated translation unit.
pub fn parse(src: &str) -> Result<Program, CcError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        directives: Vec::new(),
        sites: SiteCounts::default(),
    };
    let mut funcs = Vec::new();
    while !p.at_eof() {
        // Skip stray pragmas at top level (none are expected there).
        if let Tok::Pragma(_) = p.peek() {
            p.bump();
            continue;
        }
        funcs.push(p.function()?);
    }
    Ok(Program {
        funcs,
        directives: p.directives,
        sites: p.sites,
    })
}

/// Hand out the next id of one site kind.
fn next_site(count: &mut u32) -> SiteId {
    let id = SiteId(*count);
    *count += 1;
    id
}

const TYPE_KWS: &[&str] = &[
    "void", "char", "int", "float", "double", "long", "unsigned", "size_t", "short", "const",
    "signed",
];

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Depth of the tree under construction (see [`MAX_NESTING`]).
    depth: u32,
    directives: Vec<crate::pragma::Directive>,
    /// Guard sites numbered so far (see [`SiteId`]).
    sites: SiteCounts,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CcError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(CcError::parse(
                self.span(),
                format!("expected '{p}', found {:?}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CcError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(CcError::parse(
                self.span(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// One level deeper, or a parse error past [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), CcError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(CcError::parse(
                self.span(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        Ok(())
    }

    /// Run `f` one level deeper.
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, CcError>) -> Result<T, CcError> {
        self.descend()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn is_type_kw(&self, t: &Tok) -> bool {
        matches!(t, Tok::Ident(s) if TYPE_KWS.contains(&s.as_str()))
    }

    /// Parse declaration specifiers (`const unsigned long`...) into a base
    /// type.
    fn base_type(&mut self) -> Result<CType, CcError> {
        let mut ty: Option<CType> = None;
        let mut any = false;
        loop {
            let kw = match self.peek() {
                Tok::Ident(s) if TYPE_KWS.contains(&s.as_str()) => s.clone(),
                _ => break,
            };
            self.bump();
            any = true;
            match kw.as_str() {
                "void" => ty = Some(CType::Void),
                "char" => ty = Some(CType::Char),
                "int" | "long" | "short" | "size_t" => {
                    if ty.is_none() {
                        ty = Some(CType::Int)
                    }
                }
                "float" => ty = Some(CType::Float),
                "double" => ty = Some(CType::Double),
                "unsigned" | "signed" | "const" => {
                    // Qualifiers; default the base to int if nothing else
                    // follows.
                    if ty.is_none() {
                        ty = Some(CType::Int)
                    }
                }
                _ => unreachable!(),
            }
        }
        if !any {
            return Err(CcError::parse(self.span(), "expected type"));
        }
        Ok(ty.unwrap_or(CType::Int))
    }

    /// Parse a declarator after the base type: pointers, name, array
    /// suffixes.
    fn declarator(&mut self, base: &CType) -> Result<(CType, String), CcError> {
        let mut ty = base.clone();
        while self.eat_punct("*") {
            ty = CType::Ptr(Box::new(ty));
        }
        let name = self.expect_ident()?;
        // Array suffixes bind outside-in: `char w[4][8]` is array of 4
        // arrays of 8 chars.
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let n = match self.peek().clone() {
                Tok::IntLit(v) => {
                    self.bump();
                    Some(v as usize)
                }
                Tok::Punct("]") => None,
                _ => {
                    // Non-literal sizes: evaluate later, treat as dynamic.
                    // Accept a single identifier.
                    self.bump();
                    None
                }
            };
            self.expect_punct("]")?;
            dims.push(n);
        }
        for n in dims.into_iter().rev() {
            ty = CType::Array(Box::new(ty), n);
        }
        Ok((ty, name))
    }

    fn function(&mut self) -> Result<FuncDef, CcError> {
        let span = self.span();
        let ret = self.base_type()?;
        let mut ret = ret;
        while self.eat_punct("*") {
            ret = CType::Ptr(Box::new(ret));
        }
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                if matches!(self.peek(), Tok::Ident(s) if s == "void")
                    && matches!(self.peek2(), Tok::Punct(")"))
                {
                    self.bump();
                    break;
                }
                let base = self.base_type()?;
                let (ty, pname) = self.declarator(&base)?;
                params.push((ty, pname));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct("{")?;
        let body = self.block_body()?;
        Ok(FuncDef {
            ret,
            name,
            params,
            body,
            span,
        })
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, CcError> {
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(CcError::parse(self.span(), "unexpected EOF in block"));
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CcError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, CcError> {
        let span = self.span();
        // Pragma: attach to the next statement.
        if let Tok::Pragma(text) = self.peek().clone() {
            let pspan = self.span();
            self.bump();
            return match parse_pragma(&text, pspan)? {
                Some(d) => {
                    self.directives.push(d);
                    let idx = self.directives.len() - 1;
                    let inner = self.stmt()?;
                    Ok(Stmt {
                        kind: StmtKind::Annotated(idx, Box::new(inner)),
                        span,
                    })
                }
                None => self.stmt(), // foreign pragma: skip
            };
        }
        if self.eat_punct("{") {
            let body = self.block_body()?;
            return Ok(Stmt {
                kind: StmtKind::Block(body),
                span,
            });
        }
        if self.eat_punct(";") {
            return Ok(Stmt {
                kind: StmtKind::Empty,
                span,
            });
        }
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            Tok::Ident(kw) if kw == "for" => {
                self.bump();
                self.expect_punct("(")?;
                let init = if self.eat_punct(";") {
                    None
                } else {
                    Some(Box::new(self.decl_or_expr_stmt()?))
                };
                let cond = if matches!(self.peek(), Tok::Punct(";")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(";")?;
                let step = if matches!(self.peek(), Tok::Punct(")")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(")")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    span,
                })
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then = Box::new(self.stmt()?);
                let els = if matches!(self.peek(), Tok::Ident(s) if s == "else") {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt {
                    kind: StmtKind::If { cond, then, els },
                    span,
                })
            }
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                let e = if self.eat_punct(";") {
                    return Ok(Stmt {
                        kind: StmtKind::Return(None),
                        span,
                    });
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(";")?;
                Ok(Stmt {
                    kind: StmtKind::Return(e),
                    span,
                })
            }
            Tok::Ident(kw) if kw == "break" => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span,
                })
            }
            Tok::Ident(kw) if kw == "continue" => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span,
                })
            }
            _ => self.decl_or_expr_stmt(),
        }
    }

    /// A declaration or an expression statement, ending with `;`.
    fn decl_or_expr_stmt(&mut self) -> Result<Stmt, CcError> {
        let span = self.span();
        if self.is_type_kw(self.peek()) {
            let base = self.base_type()?;
            let mut decls = Vec::new();
            loop {
                let (ty, name) = self.declarator(&base)?;
                let init = if self.eat_punct("=") {
                    Some(self.assign_expr()?)
                } else {
                    None
                };
                decls.push(Declarator { ty, name, init });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Decl(decls),
                span,
            });
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            span,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, CcError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, CcError> {
        let lhs = self.cond_expr()?;
        let op = match self.peek() {
            Tok::Punct("=") => Some(AssignOp::None),
            Tok::Punct("+=") => Some(AssignOp::Add),
            Tok::Punct("-=") => Some(AssignOp::Sub),
            Tok::Punct("*=") => Some(AssignOp::Mul),
            Tok::Punct("/=") => Some(AssignOp::Div),
            Tok::Punct("%=") => Some(AssignOp::Rem),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Self::assign_expr)?;
            return Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn cond_expr(&mut self) -> Result<Expr, CcError> {
        let c = self.binary_expr(0)?;
        if self.eat_punct("?") {
            let t = self.nested(Self::expr)?;
            self.expect_punct(":")?;
            let e = self.nested(Self::cond_expr)?;
            return Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(e)));
        }
        Ok(c)
    }

    fn bin_op_prec(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek() {
            Tok::Punct("||") => (BinOp::Or, 1),
            Tok::Punct("&&") => (BinOp::And, 2),
            Tok::Punct("|") => (BinOp::BitOr, 3),
            Tok::Punct("^") => (BinOp::BitXor, 4),
            Tok::Punct("&") => (BinOp::BitAnd, 5),
            Tok::Punct("==") => (BinOp::Eq, 6),
            Tok::Punct("!=") => (BinOp::Ne, 6),
            Tok::Punct("<") => (BinOp::Lt, 7),
            Tok::Punct("<=") => (BinOp::Le, 7),
            Tok::Punct(">") => (BinOp::Gt, 7),
            Tok::Punct(">=") => (BinOp::Ge, 7),
            Tok::Punct("<<") => (BinOp::Shl, 8),
            Tok::Punct(">>") => (BinOp::Shr, 8),
            Tok::Punct("+") => (BinOp::Add, 9),
            Tok::Punct("-") => (BinOp::Sub, 9),
            Tok::Punct("*") => (BinOp::Mul, 10),
            Tok::Punct("/") => (BinOp::Div, 10),
            Tok::Punct("%") => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, CcError> {
        let mut lhs = self.unary_expr()?;
        // Each operator of a left-deep chain puts `lhs` one level down.
        let depth = self.depth;
        while let Some((op, prec)) = self.bin_op_prec() {
            if prec < min_prec {
                break;
            }
            self.descend()?;
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let site = match op {
                BinOp::Div | BinOp::Rem => next_site(&mut self.sites.divisions),
                _ => SiteId::NONE,
            };
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), site);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CcError> {
        self.nested(Self::unary_inner)
    }

    fn unary_inner(&mut self) -> Result<Expr, CcError> {
        // Cast: '(' type ... ')'.
        if matches!(self.peek(), Tok::Punct("(")) && self.is_type_kw(self.peek2()) {
            self.bump();
            let base = self.base_type()?;
            let mut ty = base;
            while self.eat_punct("*") {
                ty = CType::Ptr(Box::new(ty));
            }
            self.expect_punct(")")?;
            let inner = self.unary_expr()?;
            return Ok(Expr::Cast(ty, Box::new(inner)));
        }
        match self.peek().clone() {
            Tok::Punct("-") => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("!") => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("~") => {
                self.bump();
                Ok(Expr::Unary(UnOp::BitNot, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("&") => {
                self.bump();
                Ok(Expr::Unary(UnOp::AddrOf, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("*") => {
                self.bump();
                Ok(Expr::Unary(UnOp::Deref, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("++") => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreInc, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("--") => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreDec, Box::new(self.unary_expr()?)))
            }
            Tok::Punct("+") => {
                self.bump();
                self.unary_expr()
            }
            Tok::Ident(kw) if kw == "sizeof" => {
                self.bump();
                self.expect_punct("(")?;
                let e = if self.is_type_kw(self.peek()) {
                    let base = self.base_type()?;
                    let mut ty = base;
                    while self.eat_punct("*") {
                        ty = CType::Ptr(Box::new(ty));
                    }
                    Expr::SizeOf(ty)
                } else {
                    // sizeof(expr): treat as sizeof int for the subset.
                    let _ = self.expr()?;
                    Expr::SizeOf(CType::Int)
                };
                self.expect_punct(")")?;
                Ok(e)
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CcError> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat_punct("(") {
                let name = match &e {
                    Expr::Ident(n) => n.clone(),
                    _ => {
                        return Err(CcError::parse(
                            self.span(),
                            "only direct calls are supported",
                        ))
                    }
                };
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.assign_expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                e = Expr::Call(name, args, next_site(&mut self.sites.calls));
            } else if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                let site = next_site(&mut self.sites.subscripts);
                e = Expr::Index(Box::new(e), Box::new(idx), site);
            } else if self.eat_punct("++") {
                e = Expr::PostInc(Box::new(e));
            } else if self.eat_punct("--") {
                e = Expr::PostDec(Box::new(e));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, CcError> {
        let span = self.span();
        match self.bump() {
            Tok::IntLit(v) => Ok(Expr::IntLit(v)),
            Tok::FloatLit(v) => Ok(Expr::FloatLit(v)),
            Tok::StrLit(s) => Ok(Expr::StrLit(s)),
            Tok::CharLit(c) => Ok(Expr::CharLit(c)),
            Tok::Ident(s) => Ok(Expr::Ident(s)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(CcError::parse(
                span,
                format!("unexpected token {other:?} in expression"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_listings::{LISTING1, LISTING2};

    #[test]
    fn parses_minimal_main() {
        let p = parse("int main() { return 0; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].body.len(), 1);
    }

    #[test]
    fn parses_declarations_with_mixed_declarators() {
        let p = parse("int main() { char word[30], *line; int a = 1, b; }").unwrap();
        match &p.funcs[0].body[0].kind {
            StmtKind::Decl(ds) => {
                assert_eq!(ds.len(), 2);
                assert_eq!(ds[0].ty, CType::Array(Box::new(CType::Char), Some(30)));
                assert_eq!(ds[1].ty, CType::Ptr(Box::new(CType::Char)));
            }
            k => panic!("expected decl, got {k:?}"),
        }
    }

    #[test]
    fn assignment_in_condition() {
        // The idiom the mapper loop depends on.
        let p = parse("int main() { int r; while( (r = getline()) != -1 ) { r = 0; } }").unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(body[1].kind, StmtKind::While { .. }));
    }

    #[test]
    fn pragma_attaches_to_following_stmt() {
        let src = r#"
int main() {
  int one; char word[30];
  #pragma mapreduce mapper key(word) value(one)
  while (1) { one = 1; }
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.directives.len(), 1);
        let annotated = p.funcs[0]
            .body
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Annotated(..)));
        match &annotated.unwrap().kind {
            StmtKind::Annotated(0, inner) => {
                assert!(matches!(inner.kind, StmtKind::While { .. }))
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn pragma_can_annotate_a_block() {
        // Listing 2 attaches the combiner pragma to a block.
        let src = r#"
int main() {
  int count; char w[30]; int v; char pw[30];
  #pragma mapreduce combiner key(pw) value(count) keyin(w) valuein(v) firstprivate(pw, count)
  {
    while (scanf() == 2) { count += v; }
  }
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.directives.len(), 1);
        let annotated = p.funcs[0]
            .body
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Annotated(..)))
            .unwrap();
        match &annotated.kind {
            StmtKind::Annotated(_, inner) => assert!(matches!(inner.kind, StmtKind::Block(_))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn operator_precedence() {
        let p = parse("int main() { int x; x = 1 + 2 * 3; }").unwrap();
        match &p.funcs[0].body[1].kind {
            StmtKind::Expr(Expr::Assign(_, _, rhs)) => match rhs.as_ref() {
                Expr::Binary(BinOp::Add, a, b, SiteId::NONE) => {
                    assert_eq!(**a, Expr::IntLit(1));
                    assert!(matches!(**b, Expr::Binary(BinOp::Mul, ..)));
                }
                e => panic!("bad precedence: {e:?}"),
            },
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        let p = parse("int main() { char *line; line = (char*) malloc(100*sizeof(char)); }");
        assert!(p.is_ok());
    }

    #[test]
    fn for_loops_and_ternary() {
        let p = parse(
            "int main() { int i, s; s = 0; for (i = 0; i < 10; i++) { s += i > 5 ? 2 : 1; } }",
        )
        .unwrap();
        assert!(p.funcs[0]
            .body
            .iter()
            .any(|s| matches!(s.kind, StmtKind::For { .. })));
    }

    #[test]
    fn address_of_and_deref() {
        let p = parse("int main() { int v; int *p; p = &v; *p = 3; }").unwrap();
        assert_eq!(p.funcs[0].body.len(), 4);
    }

    #[test]
    fn multiple_functions() {
        let p = parse(
            "double dist(double a, double b) { return (a-b)*(a-b); } int main() { return 0; }",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 2);
        assert!(p.func("dist").is_some());
        assert_eq!(p.func("dist").unwrap().params.len(), 2);
    }

    #[test]
    fn two_dimensional_arrays() {
        let p = parse("int main() { double c[4][8]; c[1][2] = 3.0; }").unwrap();
        match &p.funcs[0].body[0].kind {
            StmtKind::Decl(ds) => {
                assert_eq!(
                    ds[0].ty,
                    CType::Array(
                        Box::new(CType::Array(Box::new(CType::Double), Some(8))),
                        Some(4)
                    )
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn paper_listing_1_parses() {
        let p = parse(LISTING1).unwrap();
        assert_eq!(p.directives.len(), 1);
        assert_eq!(p.directives[0].key, "word");
    }

    #[test]
    fn paper_listing_2_parses() {
        let p = parse(LISTING2).unwrap();
        assert_eq!(p.directives.len(), 1);
        assert_eq!(p.directives[0].keyin.as_deref(), Some("word"));
    }

    #[test]
    fn error_reports_line() {
        let e = parse("int main() {\n int x = ;\n}").unwrap_err();
        match e {
            CcError::Parse { span, .. } => assert_eq!(span.line, 2),
            other => panic!("{other:?}"),
        }
    }
}
