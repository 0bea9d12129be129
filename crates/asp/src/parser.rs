//! Recursive-descent parser for the clingo-like surface syntax.
//!
//! Supported statement forms:
//!
//! * facts and normal rules: `p(a). q(X) :- p(X), not r(X), X != b.`
//! * integrity constraints: `:- p(X), q(X).`
//! * choice rules with bounds and conditional elements:
//!   `1 { active(F) : potential(F) } 2 :- trigger.`
//! * interval facts: `step(1..5).` (expanded at parse time),
//! * optimization: `#minimize { 1@2,F : active(F); Cost,M : chosen(M) }.`
//!   and `#maximize { … }` (negated weights),
//! * projection: `#show violated/1.`
//! * comments: `% …` to end of line.

use crate::ast::{
    ArithOp, Atom, ChoiceElement, CmpOp, Head, Literal, MinimizeElement, Program, Rule, Statement,
    Term,
};
use crate::diag::{LineIndex, Span};
use crate::error::AspError;
use crate::lexer::{err_at, tokenize, Token, TokenKind};

/// Parse a complete program.
///
/// # Errors
///
/// [`AspError::Parse`] on any syntax error (with line/column info) and
/// [`AspError::UnsafeRule`] for rules with unbound variables.
pub fn parse_program(src: &str) -> Result<Program, AspError> {
    Ok(parse_spanned_inner(src, true)?.program)
}

/// Parse a complete program, keeping the span side table consumed by the
/// lint pass ([`crate::lint`]).
///
/// Unlike [`parse_program`], rule safety is *not* enforced here — unsafe
/// rules come back in the AST so the linter can report them as
/// span-carrying diagnostics (code `A003`) instead of aborting at the
/// first one.
///
/// # Errors
///
/// [`AspError::Parse`] on syntax errors only.
pub fn parse_program_spanned(src: &str) -> Result<SpannedProgram, AspError> {
    parse_spanned_inner(src, false)
}

fn parse_spanned_inner(src: &str, check_safety: bool) -> Result<SpannedProgram, AspError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        src,
        lines: LineIndex::new(src),
        tokens,
        pos: 0,
        check_safety,
        stmt_count: 0,
        statement_spans: Vec::new(),
        occurrences: Vec::new(),
        pending: Vec::new(),
    };
    let mut program = Program::new();
    while !p.at(&TokenKind::Eof) {
        let stmts = p.statement()?;
        program.statements.extend(stmts);
    }
    Ok(SpannedProgram {
        program,
        statement_spans: p.statement_spans,
        occurrences: p.occurrences,
    })
}

/// A parsed program plus the source-span side table.
///
/// Spans cannot live on the AST itself ([`Atom`] is interned by identity in
/// the grounder), so the parser records them alongside: one span per
/// emitted statement, and one [`PredOcc`] per syntactic predicate
/// occurrence.
#[derive(Debug, Clone)]
pub struct SpannedProgram {
    /// The parsed program (safety not yet checked — see
    /// [`parse_program_spanned`]).
    pub program: Program,
    /// Span of each statement, aligned with `program.statements`. Interval
    /// facts expanded from one source statement share its span.
    pub statement_spans: Vec<Span>,
    /// Every predicate occurrence, in source order.
    pub occurrences: Vec<PredOcc>,
}

/// One syntactic occurrence of a predicate in the source.
#[derive(Debug, Clone)]
pub struct PredOcc {
    /// Predicate name.
    pub pred: String,
    /// Number of arguments at this occurrence.
    pub arity: usize,
    /// How the predicate is used here.
    pub role: OccRole,
    /// Index (into `program.statements`) of the first statement emitted
    /// from the source statement containing this occurrence.
    pub stmt: usize,
    /// Span of the predicate name token.
    pub span: Span,
}

/// The syntactic role of a predicate occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccRole {
    /// Head atom or choice-element atom: a defining occurrence.
    Def,
    /// Positive body/condition literal.
    Pos,
    /// Negated (`not …`) body/condition literal.
    Neg,
    /// `#show pred/arity` projection.
    Show,
}

struct Parser<'a> {
    src: &'a str,
    lines: LineIndex,
    tokens: Vec<Token>,
    pos: usize,
    check_safety: bool,
    stmt_count: usize,
    statement_spans: Vec<Span>,
    occurrences: Vec<PredOcc>,
    pending: Vec<(String, usize, OccRole, Span)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), AspError> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{kind}`, found `{}`", self.peek())))
        }
    }

    fn error(&self, msg: &str) -> AspError {
        self.error_at(self.pos, msg)
    }

    /// An error pointing at the token with index `idx` — used after a
    /// `bump()` so the message cites the offending token, not its
    /// successor.
    fn error_at(&self, idx: usize, msg: &str) -> AspError {
        err_at(
            self.src,
            self.tokens[idx.min(self.tokens.len() - 1)].offset,
            msg,
        )
    }

    /// Span of one token.
    fn tok_span(&self, idx: usize) -> Span {
        let t = &self.tokens[idx.min(self.tokens.len() - 1)];
        self.lines.span(t.offset, t.len)
    }

    /// Span from the start of token `start_idx` to the end of the last
    /// consumed token.
    fn span_from(&self, start_idx: usize) -> Span {
        let start = self.tokens[start_idx.min(self.tokens.len() - 1)].offset;
        let last_idx = self
            .pos
            .saturating_sub(1)
            .max(start_idx)
            .min(self.tokens.len() - 1);
        let last = &self.tokens[last_idx];
        self.lines
            .span(start, (last.offset + last.len).saturating_sub(start))
    }

    /// Queue a predicate occurrence of the statement being parsed.
    fn record(&mut self, pred: &str, arity: usize, role: OccRole, span: Span) {
        if !pred.starts_with('#') {
            self.pending.push((pred.to_owned(), arity, role, span));
        }
    }

    /// Parse one statement; interval facts may expand to several.
    fn statement(&mut self) -> Result<Vec<Statement>, AspError> {
        let start = self.pos;
        let stmts = match self.peek() {
            TokenKind::Minimize => self.minimize(false),
            TokenKind::Maximize => self.minimize(true),
            TokenKind::Show => self.show(),
            _ => self.rule(start),
        }?;
        let span = self.span_from(start);
        let first = self.stmt_count;
        self.statement_spans
            .extend(std::iter::repeat_n(span, stmts.len()));
        self.stmt_count += stmts.len();
        for (pred, arity, role, occ_span) in self.pending.drain(..) {
            self.occurrences.push(PredOcc {
                pred,
                arity,
                role,
                stmt: first,
                span: occ_span,
            });
        }
        Ok(stmts)
    }

    fn show(&mut self) -> Result<Vec<Statement>, AspError> {
        self.expect(&TokenKind::Show)?;
        let name_idx = self.pos;
        let pred = match self.bump() {
            TokenKind::Ident(s) => s,
            other => {
                return Err(self.error_at(
                    name_idx,
                    &format!("expected predicate name, found `{other}`"),
                ))
            }
        };
        self.expect(&TokenKind::Slash)?;
        let arity_idx = self.pos;
        let arity = match self.bump() {
            TokenKind::Int(n) if n >= 0 => n as usize,
            other => {
                return Err(self.error_at(arity_idx, &format!("expected arity, found `{other}`")))
            }
        };
        self.expect(&TokenKind::Dot)?;
        let span = self.tok_span(name_idx);
        self.record(&pred, arity, OccRole::Show, span);
        Ok(vec![Statement::Show { pred, arity }])
    }

    fn minimize(&mut self, maximize: bool) -> Result<Vec<Statement>, AspError> {
        self.bump(); // #minimize / #maximize
        self.expect(&TokenKind::LBrace)?;
        // priority -> elements
        let mut by_prio: Vec<(i64, Vec<MinimizeElement>)> = Vec::new();
        loop {
            let weight = self.term()?;
            let weight = if maximize {
                Term::BinOp(ArithOp::Sub, Box::new(Term::Int(0)), Box::new(weight))
            } else {
                weight
            };
            let mut priority = 0i64;
            if self.at(&TokenKind::At) {
                self.bump();
                let prio_idx = self.pos;
                match self.bump() {
                    TokenKind::Int(p) => priority = p,
                    other => {
                        return Err(
                            self.error_at(prio_idx, &format!("expected priority, found `{other}`"))
                        )
                    }
                }
            }
            let mut terms = Vec::new();
            while self.at(&TokenKind::Comma) {
                self.bump();
                terms.push(self.term()?);
            }
            let mut condition = Vec::new();
            if self.at(&TokenKind::Colon) {
                self.bump();
                condition = self.literals_until(&[TokenKind::Semi, TokenKind::RBrace])?;
            }
            let elem = MinimizeElement {
                weight,
                terms,
                condition,
            };
            match by_prio.iter_mut().find(|(p, _)| *p == priority) {
                Some((_, v)) => v.push(elem),
                None => by_prio.push((priority, vec![elem])),
            }
            if self.at(&TokenKind::Semi) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Dot)?;
        Ok(by_prio
            .into_iter()
            .map(|(priority, elements)| Statement::Minimize { priority, elements })
            .collect())
    }

    fn rule(&mut self, start: usize) -> Result<Vec<Statement>, AspError> {
        let head = if self.at(&TokenKind::If) {
            Head::None
        } else {
            self.head()?
        };
        let body = if self.at(&TokenKind::If) {
            self.bump();
            self.literals_until(&[TokenKind::Dot])?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::Dot)?;
        let rule = Rule { head, body };
        // Expand interval facts: p(1..3). -> p(1). p(2). p(3). Errors point
        // at the start of the offending statement, not past its dot.
        let expanded = expand_intervals(rule).map_err(|m| self.error_at(start, &m))?;
        if self.check_safety {
            for r in &expanded {
                r.check_safety()?;
            }
        }
        Ok(expanded.into_iter().map(Statement::Rule).collect())
    }

    fn head(&mut self) -> Result<Head, AspError> {
        // Possible: `atom`, `{...}`, `n {...} m`.
        let lower = match (self.peek(), self.peek2()) {
            (TokenKind::Int(n), TokenKind::LBrace) if *n >= 0 => {
                let n = *n as u32;
                self.bump();
                Some(n)
            }
            _ => None,
        };
        if self.at(&TokenKind::LBrace) {
            self.bump();
            let mut elements = Vec::new();
            if !self.at(&TokenKind::RBrace) {
                loop {
                    let atom = self.atom(OccRole::Def)?;
                    let mut condition = Vec::new();
                    if self.at(&TokenKind::Colon) {
                        self.bump();
                        condition = self.literals_until(&[TokenKind::Semi, TokenKind::RBrace])?;
                    }
                    elements.push(ChoiceElement { atom, condition });
                    if self.at(&TokenKind::Semi) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RBrace)?;
            let upper = match self.peek() {
                TokenKind::Int(n) if *n >= 0 => {
                    let n = *n as u32;
                    self.bump();
                    Some(n)
                }
                _ => None,
            };
            Ok(Head::Choice {
                lower,
                upper,
                elements,
            })
        } else if lower.is_some() {
            Err(self.error("expected `{` after cardinality bound"))
        } else {
            Ok(Head::Atom(self.atom(OccRole::Def)?))
        }
    }

    /// Parse a comma-separated literal list, stopping (without consuming)
    /// at the first non-comma token — the caller's terminator `expect`
    /// reports malformed input precisely.
    fn literals_until(&mut self, _stops: &[TokenKind]) -> Result<Vec<Literal>, AspError> {
        let mut out = Vec::new();
        loop {
            out.push(self.literal()?);
            if self.at(&TokenKind::Comma) {
                self.bump();
            } else {
                // Stop at any terminator (or on malformed input, which the
                // caller's `expect` will report precisely).
                break;
            }
        }
        Ok(out)
    }

    fn literal(&mut self) -> Result<Literal, AspError> {
        if self.at(&TokenKind::Not) {
            self.bump();
            return Ok(Literal::Neg(self.atom(OccRole::Neg)?));
        }
        // Parse a term; if a comparison operator follows it is a builtin.
        let start = self.pos;
        let lhs = self.term()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.term()?;
            return Ok(Literal::Cmp(op, lhs, rhs));
        }
        match lhs {
            Term::Const(name) => {
                let span = self.tok_span(start);
                self.record(&name, 0, OccRole::Pos, span);
                Ok(Literal::Pos(Atom::prop(name)))
            }
            Term::Func(name, args) => {
                let span = self.tok_span(start);
                self.record(&name, args.len(), OccRole::Pos, span);
                Ok(Literal::Pos(Atom::new(name, args)))
            }
            other => Err(self.error_at(start, &format!("`{other}` is not a valid literal"))),
        }
    }

    fn atom(&mut self, role: OccRole) -> Result<Atom, AspError> {
        let name_idx = self.pos;
        match self.bump() {
            TokenKind::Ident(name) => {
                let span = self.tok_span(name_idx);
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = vec![self.term()?];
                    while self.at(&TokenKind::Comma) {
                        self.bump();
                        args.push(self.term()?);
                    }
                    self.expect(&TokenKind::RParen)?;
                    self.record(&name, args.len(), role, span);
                    Ok(Atom::new(name, args))
                } else {
                    self.record(&name, 0, role, span);
                    Ok(Atom::prop(name))
                }
            }
            other => Err(self.error_at(name_idx, &format!("expected atom, found `{other}`"))),
        }
    }

    fn term(&mut self) -> Result<Term, AspError> {
        let lhs = self.add_expr()?;
        // Interval `a..b` — represented as the reserved functor `#range`.
        if self.at(&TokenKind::DotDot) {
            self.bump();
            let rhs = self.add_expr()?;
            return Ok(Term::Func("#range".into(), vec![lhs, rhs]));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Term, AspError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Term, AspError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Term, AspError> {
        if self.at(&TokenKind::Minus) {
            self.bump();
            let t = self.unary()?;
            return Ok(match t {
                Term::Int(i) => Term::Int(-i),
                other => Term::BinOp(ArithOp::Sub, Box::new(Term::Int(0)), Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Term, AspError> {
        let start = self.pos;
        match self.bump() {
            TokenKind::Int(i) => Ok(Term::Int(i)),
            TokenKind::Str(s) => Ok(Term::Str(s)),
            TokenKind::Variable(v) => Ok(Term::Var(v)),
            TokenKind::Ident(name) => {
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = vec![self.term()?];
                    while self.at(&TokenKind::Comma) {
                        self.bump();
                        args.push(self.term()?);
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Term::Func(name, args))
                } else {
                    Ok(Term::Const(name))
                }
            }
            TokenKind::LParen => {
                let t = self.term()?;
                self.expect(&TokenKind::RParen)?;
                Ok(t)
            }
            other => Err(self.error_at(start, &format!("expected term, found `{other}`"))),
        }
    }
}

/// Expand `#range` interval terms in fact heads; reject them elsewhere.
fn expand_intervals(rule: Rule) -> Result<Vec<Rule>, String> {
    fn has_range(t: &Term) -> bool {
        match t {
            Term::Func(f, args) => f == "#range" || args.iter().any(has_range),
            Term::BinOp(_, a, b) => has_range(a) || has_range(b),
            _ => false,
        }
    }
    let head_atom_ranges = match &rule.head {
        Head::Atom(a) => a.args.iter().any(has_range),
        Head::Choice { elements, .. } => elements.iter().any(|e| {
            e.atom.args.iter().any(has_range) || e.condition.iter().any(literal_has_range)
        }),
        Head::None => false,
    };
    fn literal_has_range(l: &Literal) -> bool {
        match l {
            Literal::Pos(a) | Literal::Neg(a) => a.args.iter().any(has_range),
            Literal::Cmp(_, x, y) => has_range(x) || has_range(y),
        }
    }
    if rule.body.iter().any(literal_has_range) {
        return Err("intervals `l..u` are only supported in fact heads".into());
    }
    if !head_atom_ranges {
        return Ok(vec![rule]);
    }
    let (atom, is_fact) = match (&rule.head, rule.body.is_empty()) {
        (Head::Atom(a), true) => (a.clone(), true),
        _ => (Atom::prop("x"), false),
    };
    if !is_fact {
        return Err("intervals `l..u` are only supported in fact heads".into());
    }
    // Cartesian expansion of every range argument.
    let mut results: Vec<Vec<Term>> = vec![Vec::new()];
    for arg in &atom.args {
        let choices: Vec<Term> = match arg {
            Term::Func(f, bounds) if f == "#range" => {
                let lo = bounds[0].eval().map_err(|e| e.to_string())?;
                let hi = bounds[1].eval().map_err(|e| e.to_string())?;
                match (lo, hi) {
                    (Term::Int(l), Term::Int(h))
                        if l <= h && h.checked_sub(l).is_some_and(|w| w <= 100_000) =>
                    {
                        (l..=h).map(Term::Int).collect()
                    }
                    (l, h) => return Err(format!("invalid interval {l}..{h}")),
                }
            }
            other => vec![other.clone()],
        };
        let mut next = Vec::with_capacity(results.len() * choices.len());
        for prefix in &results {
            for c in &choices {
                let mut row = prefix.clone();
                row.push(c.clone());
                next.push(row);
            }
        }
        results = next;
    }
    Ok(results
        .into_iter()
        .map(|args| Rule::fact(Atom::new(atom.pred.clone(), args)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("parse failed for `{src}`: {e}"))
    }

    #[test]
    fn parses_facts_and_rules() {
        let p = parse_ok("p(a). q(X) :- p(X).");
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.statements[0].to_string(), "p(a).");
        assert_eq!(p.statements[1].to_string(), "q(X) :- p(X).");
    }

    #[test]
    fn parses_paper_listing_1() {
        let p = parse_ok(
            "potential_fault(C, F) :- component(C), fault(F), \
             mitigation(F, M), not active_mitigation(C, M).",
        );
        assert_eq!(
            p.statements[0].to_string(),
            "potential_fault(C,F) :- component(C), fault(F), mitigation(F,M), not active_mitigation(C,M)."
        );
    }

    #[test]
    fn parses_paper_listing_2() {
        let p = parse_ok(
            "component_state(C, X) :- prev_component_state(C, X), active_fault(C, stuck_at_x).",
        );
        assert_eq!(p.statements.len(), 1);
    }

    #[test]
    fn parses_constraints() {
        let p = parse_ok(":- violated(r1), not acceptable.");
        assert!(matches!(
            &p.statements[0],
            Statement::Rule(Rule {
                head: Head::None,
                ..
            })
        ));
    }

    #[test]
    fn parses_choice_rules_with_bounds_and_conditions() {
        let p = parse_ok("1 { active(F) : potential(F) } 2 :- trigger.");
        match &p.statements[0] {
            Statement::Rule(Rule {
                head:
                    Head::Choice {
                        lower,
                        upper,
                        elements,
                    },
                body,
            }) => {
                assert_eq!(*lower, Some(1));
                assert_eq!(*upper, Some(2));
                assert_eq!(elements.len(), 1);
                assert_eq!(elements[0].condition.len(), 1);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected choice rule, got {other:?}"),
        }
    }

    #[test]
    fn parses_unbounded_choice() {
        let p = parse_ok("{ a; b; c }.");
        match &p.statements[0] {
            Statement::Rule(Rule {
                head:
                    Head::Choice {
                        lower,
                        upper,
                        elements,
                    },
                ..
            }) => {
                assert_eq!(*lower, None);
                assert_eq!(*upper, None);
                assert_eq!(elements.len(), 3);
            }
            other => panic!("expected choice rule, got {other:?}"),
        }
    }

    #[test]
    fn parses_comparisons_and_arithmetic() {
        let p = parse_ok("p(Y) :- q(X), Y = X + 1, Y < 10, X != 3.");
        assert_eq!(
            p.statements[0].to_string(),
            "p(Y) :- q(X), Y = (X+1), Y < 10, X != 3."
        );
    }

    #[test]
    fn expands_interval_facts() {
        let p = parse_ok("n(1..3).");
        let texts: Vec<String> = p.statements.iter().map(ToString::to_string).collect();
        assert_eq!(texts, vec!["n(1).", "n(2).", "n(3)."]);
        // Multi-dimensional expansion.
        let p2 = parse_ok("cell(1..2, 1..2).");
        assert_eq!(p2.statements.len(), 4);
    }

    #[test]
    fn rejects_intervals_outside_facts() {
        assert!(parse_program("p(X) :- q(1..3).").is_err());
    }

    #[test]
    fn parses_minimize_with_priorities() {
        let p = parse_ok("#minimize { 1@2,F : active(F); Cost,M : chosen(M), cost(M, Cost) }.");
        let prios: Vec<i64> = p
            .statements
            .iter()
            .filter_map(|s| match s {
                Statement::Minimize { priority, .. } => Some(*priority),
                _ => None,
            })
            .collect();
        assert_eq!(prios.len(), 2);
        assert!(prios.contains(&2));
        assert!(prios.contains(&0));
    }

    #[test]
    fn parses_maximize_as_negated_minimize() {
        let p = parse_ok("#maximize { 3 : good }.");
        match &p.statements[0] {
            Statement::Minimize { elements, .. } => {
                assert_eq!(elements[0].weight.eval().unwrap(), Term::Int(-3));
            }
            other => panic!("expected minimize, got {other:?}"),
        }
    }

    #[test]
    fn parses_show_directive() {
        let p = parse_ok("#show violated/1.");
        assert_eq!(
            p.statements[0],
            Statement::Show {
                pred: "violated".into(),
                arity: 1
            }
        );
    }

    #[test]
    fn rejects_unsafe_rules_at_parse_time() {
        assert!(matches!(
            parse_program("p(X) :- not q(X)."),
            Err(AspError::UnsafeRule { .. })
        ));
        assert!(matches!(
            parse_program("p(X, Y) :- q(X)."),
            Err(AspError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn choice_element_condition_makes_vars_safe() {
        // F is bound by the element condition, not the body — must be safe.
        assert!(parse_program("{ active(F) : potential(F) }.").is_ok());
        // G is bound nowhere — unsafe.
        assert!(parse_program("{ active(G) }.").is_err());
    }

    #[test]
    fn negative_numbers_and_parens() {
        let p = parse_ok("p(-3). q(X) :- p(X), X < -(1 + 1).");
        assert!(p.statements[0].to_string().contains("-3"));
    }

    #[test]
    fn reports_position_on_error() {
        let err = parse_program("p(a)\nq(b).").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn strings_as_terms() {
        let p = parse_ok(r#"name(c1, "Engineering Workstation")."#);
        assert!(p.statements[0]
            .to_string()
            .contains("\"Engineering Workstation\""));
    }

    #[test]
    fn propositional_atoms() {
        let p = parse_ok("a :- b, not c.");
        assert_eq!(p.statements[0].to_string(), "a :- b, not c.");
    }

    /// Assert that parsing `src` fails with a message containing `needle`
    /// anchored at exactly `line`/`column` of the *offending* token.
    fn assert_error_at(src: &str, needle: &str, line: usize, column: usize) {
        let err = parse_program(src).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "`{src}`: expected `{needle}` in `{msg}`"
        );
        assert!(
            msg.contains(&format!("line {line}, column {column}")),
            "`{src}`: expected line {line}, column {column} in `{msg}`"
        );
    }

    #[test]
    fn show_error_points_at_bad_predicate_name() {
        assert_error_at("#show 1/2.", "expected predicate name", 1, 7);
    }

    #[test]
    fn show_error_points_at_bad_arity() {
        assert_error_at("#show p/x.", "expected arity", 1, 9);
    }

    #[test]
    fn minimize_error_points_at_bad_priority() {
        assert_error_at("#minimize { 1@p : q }.", "expected priority", 1, 15);
    }

    #[test]
    fn atom_error_points_at_offending_token() {
        assert_error_at(":- not 1.", "expected atom", 1, 8);
    }

    #[test]
    fn literal_error_points_at_offending_token() {
        assert_error_at(":- X.", "is not a valid literal", 1, 4);
    }

    #[test]
    fn term_error_points_at_offending_token() {
        assert_error_at("p(+).", "expected term", 1, 3);
    }

    #[test]
    fn interval_error_points_at_statement_start() {
        assert_error_at(
            "q(a).\np(X) :- q(1..3).",
            "only supported in fact heads",
            2,
            1,
        );
    }

    #[test]
    fn spanned_parse_keeps_statement_spans_aligned() {
        let sp = parse_program_spanned("p(a).\nn(1..3).\nq(X) :- p(X).").unwrap();
        // 1 fact + 3 expanded interval facts + 1 rule.
        assert_eq!(sp.program.statements.len(), 5);
        assert_eq!(sp.statement_spans.len(), 5);
        // Expanded facts share the span of their source statement.
        assert_eq!(sp.statement_spans[1], sp.statement_spans[2]);
        assert_eq!(sp.statement_spans[1].line, 2);
        assert_eq!(sp.statement_spans[4].line, 3);
        assert_eq!(sp.statement_spans[4].column, 1);
    }

    #[test]
    fn spanned_parse_records_occurrence_roles() {
        let sp = parse_program_spanned("q(X) :- p(X), not r(X).\n#show q/1.").unwrap();
        let roles: Vec<(&str, OccRole)> = sp
            .occurrences
            .iter()
            .map(|o| (o.pred.as_str(), o.role))
            .collect();
        assert_eq!(
            roles,
            vec![
                ("q", OccRole::Def),
                ("p", OccRole::Pos),
                ("r", OccRole::Neg),
                ("q", OccRole::Show)
            ]
        );
        let r = &sp.occurrences[2];
        assert_eq!((r.span.line, r.span.column, r.span.len), (1, 19, 1));
        assert_eq!(r.stmt, 0);
        assert_eq!(sp.occurrences[3].stmt, 1);
    }

    #[test]
    fn spanned_parse_tolerates_unsafe_rules() {
        // `parse_program` rejects this; the lenient entry point keeps it so
        // the lint pass can report it with a span.
        let sp = parse_program_spanned("p(X) :- not q(X).").unwrap();
        assert_eq!(sp.program.statements.len(), 1);
        assert!(parse_program("p(X) :- not q(X).").is_err());
    }

    /// One statement or separator of a random multi-line source: rules
    /// and facts, comments, blank lines, CRLF endings, and string
    /// literals spanning raw newlines.
    fn arb_piece() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let name = || (0..3usize).prop_map(|i| ["p", "qq", "tank_level"][i].to_owned());
        prop_oneof![
            (name(), 0..40i64).prop_map(|(p, n)| format!("{p}({n}).")),
            (name(), name()).prop_map(|(h, b)| format!("{h}(X) :- {b}(X), not {h}(X).")),
            name().prop_map(|p| format!("label({p}, \"two\nlines\").")),
            name().prop_map(|p| format!("{p}(\"a\r\n\n\nb\", 1..3).")),
            name().prop_map(|p| format!("#show {p}/1.")),
            name().prop_map(|p| format!("{{ {p}(X) : {p}(X) }} 1 :- {p}(1).")),
            Just("% a comment: with ( tokens ).\n".to_owned()),
            Just("\n".to_owned()),
            Just("\r\n".to_owned()),
            Just("  \t".to_owned()),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn line_indexed_spans_equal_span_new(
            pieces in proptest::collection::vec(arb_piece(), 1..40)
        ) {
            let src = pieces.join(" ");
            let sp = parse_program_spanned(&src).expect("generated sources parse");
            for span in sp.statement_spans.iter().chain(sp.occurrences.iter().map(|o| &o.span)) {
                proptest::prop_assert_eq!(*span, Span::new(&src, span.offset, span.len));
            }
        }
    }
}
