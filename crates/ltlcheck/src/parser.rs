use crate::{Atom, Ltl};
use autokit::Vocab;
use std::fmt;

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLtlError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseLtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseLtlError {}

/// The deepest formula [`parse`] accepts. Parentheses, prefix operators
/// and each step of a right-associative `->`/`U`/`R` chain add a level,
/// and so does each further operand of a left-associative `&`/`|`/`<->`
/// chain: every level is a level of the formula tree. The parser, and
/// every later pass over the tree, recurses once per level, so the bound
/// keeps arbitrary input within a thread's stack (a formula at the limit
/// parses on a 2 MiB thread in a debug build) instead of overflowing it.
pub const MAX_NESTING: usize = 128;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Atom(String),
    True,
    False,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Next,
    Until,
    Release,
    Finally,
    Globally,
    LParen,
    RParen,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseLtlError {
        ParseLtlError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, ParseLtlError> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let rest = &self.src[self.pos..];
            let Some(c) = rest.chars().next() else { break };
            let tok = match c {
                ' ' | '\t' | '\n' | '\r' => {
                    self.pos += 1;
                    continue;
                }
                '(' => {
                    self.pos += 1;
                    Tok::LParen
                }
                ')' => {
                    self.pos += 1;
                    Tok::RParen
                }
                '!' | '¬' => {
                    self.pos += c.len_utf8();
                    Tok::Not
                }
                '&' | '∧' => {
                    self.pos += c.len_utf8();
                    if self.bytes.get(self.pos) == Some(&b'&') {
                        self.pos += 1;
                    }
                    Tok::And
                }
                '|' | '∨' => {
                    self.pos += c.len_utf8();
                    if self.bytes.get(self.pos) == Some(&b'|') {
                        self.pos += 1;
                    }
                    Tok::Or
                }
                '-' => {
                    if rest.starts_with("->") {
                        self.pos += 2;
                        Tok::Implies
                    } else {
                        return Err(self.error("expected `->`"));
                    }
                }
                '→' => {
                    self.pos += c.len_utf8();
                    Tok::Implies
                }
                '<' => {
                    if rest.starts_with("<->") {
                        self.pos += 3;
                        Tok::Iff
                    } else if rest.starts_with("<>") {
                        self.pos += 2;
                        Tok::Finally
                    } else {
                        return Err(self.error("expected `<->` or `<>`"));
                    }
                }
                '↔' => {
                    self.pos += c.len_utf8();
                    Tok::Iff
                }
                '[' => {
                    if rest.starts_with("[]") {
                        self.pos += 2;
                        Tok::Globally
                    } else {
                        return Err(self.error("expected `[]`"));
                    }
                }
                '□' => {
                    self.pos += c.len_utf8();
                    Tok::Globally
                }
                '◇' | '♦' => {
                    self.pos += c.len_utf8();
                    Tok::Finally
                }
                '○' => {
                    self.pos += c.len_utf8();
                    Tok::Next
                }
                '"' => {
                    let inner = &rest[1..];
                    match inner.find('"') {
                        Some(end) => {
                            let name = &inner[..end];
                            self.pos += end + 2;
                            Tok::Atom(name.to_owned())
                        }
                        None => return Err(self.error("unterminated quoted atom")),
                    }
                }
                _ if c.is_ascii_alphabetic() || c == '_' => {
                    let end = rest
                        .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                        .unwrap_or(rest.len());
                    let word = &rest[..end];
                    self.pos += end;
                    match word {
                        "true" | "TRUE" => Tok::True,
                        "false" | "FALSE" => Tok::False,
                        "X" => Tok::Next,
                        "U" => Tok::Until,
                        "R" | "V" => Tok::Release,
                        "F" => Tok::Finally,
                        "G" => Tok::Globally,
                        _ => Tok::Atom(word.to_owned()),
                    }
                }
                _ => return Err(self.error(format!("unexpected character `{c}`"))),
            };
            out.push((tok, start));
        }
        Ok(out)
    }
}

struct Parser<'v> {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
    vocab: &'v Vocab,
    input_len: usize,
    /// Nesting levels entered so far, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'v> Parser<'v> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseLtlError {
        ParseLtlError {
            message: message.into(),
            position: self.here(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseLtlError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// Enters one more nesting level, or fails at the current token once
    /// [`MAX_NESTING`] levels are open. Callers leave the level by
    /// restoring `depth`; an error ends the parse, so it needs no
    /// restoring.
    fn descend(&mut self) -> Result<(), ParseLtlError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("formula nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Ltl, ParseLtlError>,
    ) -> Result<Ltl, ParseLtlError> {
        self.descend()?;
        let phi = parse(self)?;
        self.depth -= 1;
        Ok(phi)
    }

    // Grammar (loosest binding first):
    //   iff     := implies (`<->` implies)*
    //   implies := or (`->` implies)?          (right-assoc)
    //   or      := and (`|` and)*
    //   and     := until (`&` until)*
    //   until   := unary ((`U`|`R`) until)?    (right-assoc)
    //   unary   := (`!`|`X`|`F`|`G`)* primary
    //   primary := atom | true | false | `(` iff `)`
    fn parse_iff(&mut self) -> Result<Ltl, ParseLtlError> {
        let depth = self.depth;
        let mut lhs = self.parse_implies()?;
        while self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            self.descend()?;
            let rhs = self.parse_implies()?;
            lhs = Ltl::iff(lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Ltl, ParseLtlError> {
        let lhs = self.parse_or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            let rhs = self.nested(Self::parse_implies)?;
            Ok(Ltl::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Ltl, ParseLtlError> {
        let depth = self.depth;
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            self.descend()?;
            let rhs = self.parse_and()?;
            lhs = Ltl::or(lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Ltl, ParseLtlError> {
        let depth = self.depth;
        let mut lhs = self.parse_until()?;
        while self.peek() == Some(&Tok::And) {
            self.pos += 1;
            self.descend()?;
            let rhs = self.parse_until()?;
            lhs = Ltl::and(lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_until(&mut self) -> Result<Ltl, ParseLtlError> {
        let lhs = self.parse_unary()?;
        match self.peek() {
            Some(Tok::Until) => {
                self.pos += 1;
                let rhs = self.nested(Self::parse_until)?;
                Ok(Ltl::until(lhs, rhs))
            }
            Some(Tok::Release) => {
                self.pos += 1;
                let rhs = self.nested(Self::parse_until)?;
                Ok(Ltl::release(lhs, rhs))
            }
            _ => Ok(lhs),
        }
    }

    fn parse_unary(&mut self) -> Result<Ltl, ParseLtlError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.pos += 1;
                Ok(Ltl::not(self.nested(Self::parse_unary)?))
            }
            Some(Tok::Next) => {
                self.pos += 1;
                Ok(Ltl::next(self.nested(Self::parse_unary)?))
            }
            Some(Tok::Finally) => {
                self.pos += 1;
                Ok(Ltl::eventually(self.nested(Self::parse_unary)?))
            }
            Some(Tok::Globally) => {
                self.pos += 1;
                Ok(Ltl::always(self.nested(Self::parse_unary)?))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Ltl, ParseLtlError> {
        let pos = self.here();
        match self.bump() {
            Some(Tok::True) => Ok(Ltl::True),
            Some(Tok::False) => Ok(Ltl::False),
            Some(Tok::Atom(name)) => self.resolve_atom(&name, pos),
            Some(Tok::LParen) => {
                let inner = self.nested(Self::parse_iff)?;
                self.expect(Tok::RParen, "closing `)`")?;
                Ok(inner)
            }
            Some(other) => Err(ParseLtlError {
                message: format!("unexpected token {other:?}"),
                position: pos,
            }),
            None => Err(ParseLtlError {
                message: "unexpected end of input".to_owned(),
                position: pos,
            }),
        }
    }

    fn resolve_atom(&self, name: &str, pos: usize) -> Result<Ltl, ParseLtlError> {
        // Underscores are accepted as word separators for unquoted names,
        // so `car_from_left` resolves to the proposition `car from left`.
        let canonical = name.replace('_', " ");
        if let Ok(p) = self.vocab.prop(&canonical) {
            return Ok(Ltl::Atom(Atom::Prop(p)));
        }
        if let Ok(a) = self.vocab.act(&canonical) {
            return Ok(Ltl::Atom(Atom::Act(a)));
        }
        Err(ParseLtlError {
            message: format!("`{canonical}` is not a proposition or action in the vocabulary"),
            position: pos,
        })
    }
}

/// Parses an LTL formula against a vocabulary.
///
/// Syntax: atoms are quoted strings (`"green traffic light"`) or bare
/// identifiers with `_` as a space substitute (`green_traffic_light`);
/// operators are `! & | -> <-> X U R F G` with the Unicode aliases
/// `¬ ∧ ∨ → ↔ ○ □ ◇` and the SPIN-style `[] <>`. `F`/`G` desugar to
/// `true U φ` / `false R φ`.
///
/// # Errors
///
/// Returns [`ParseLtlError`] on malformed syntax, when an atom is not
/// found in `vocab`, or when the formula nests deeper than
/// [`MAX_NESTING`].
///
/// # Example
///
/// ```
/// use autokit::Vocab;
/// use ltlcheck::parse;
///
/// let mut v = Vocab::new();
/// v.add_prop("stop sign")?;
/// v.add_act("stop")?;
/// let phi = parse("G(\"stop sign\" -> F stop)", &v)?;
/// // G desugars to `false R ·` and `->` to `¬· ∨ ·`, hence 8 AST nodes.
/// assert_eq!(phi.size(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse(input: &str, vocab: &Vocab) -> Result<Ltl, ParseLtlError> {
    let tokens = Lexer::new(input).tokens()?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        vocab,
        input_len: input.len(),
        depth: 0,
    };
    let formula = parser.parse_iff()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("trailing input after formula"));
    }
    Ok(formula)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_prop("car from left").unwrap();
        v.add_act("stop").unwrap();
        v
    }

    #[test]
    fn parses_atoms_and_constants() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        assert_eq!(parse("a", &v).unwrap(), Ltl::prop(a));
        assert_eq!(parse("true", &v).unwrap(), Ltl::True);
        assert_eq!(parse("false", &v).unwrap(), Ltl::False);
        assert_eq!(
            parse("\"car from left\"", &v).unwrap(),
            Ltl::prop(v.prop("car from left").unwrap())
        );
        assert_eq!(
            parse("car_from_left", &v).unwrap(),
            Ltl::prop(v.prop("car from left").unwrap())
        );
        assert_eq!(parse("stop", &v).unwrap(), Ltl::act(v.act("stop").unwrap()));
    }

    #[test]
    fn precedence_and_over_or() {
        let v = vocab();
        let (a, b) = (v.prop("a").unwrap(), v.prop("b").unwrap());
        let got = parse("a | b & a", &v).unwrap();
        assert_eq!(
            got,
            Ltl::or(Ltl::prop(a), Ltl::and(Ltl::prop(b), Ltl::prop(a)))
        );
    }

    #[test]
    fn implication_is_right_associative() {
        let v = vocab();
        let (a, b) = (v.prop("a").unwrap(), v.prop("b").unwrap());
        let got = parse("a -> b -> a", &v).unwrap();
        assert_eq!(
            got,
            Ltl::implies(Ltl::prop(a), Ltl::implies(Ltl::prop(b), Ltl::prop(a)))
        );
    }

    #[test]
    fn temporal_operators_bind_tightly() {
        let v = vocab();
        let (a, b) = (v.prop("a").unwrap(), v.prop("b").unwrap());
        assert_eq!(
            parse("G a -> F b", &v).unwrap(),
            Ltl::implies(Ltl::always(Ltl::prop(a)), Ltl::eventually(Ltl::prop(b)))
        );
        assert_eq!(
            parse("a U b", &v).unwrap(),
            Ltl::until(Ltl::prop(a), Ltl::prop(b))
        );
        assert_eq!(
            parse("a R b", &v).unwrap(),
            Ltl::release(Ltl::prop(a), Ltl::prop(b))
        );
    }

    #[test]
    fn unicode_aliases() {
        let v = vocab();
        let ascii = parse("G(!a -> F(b & a))", &v).unwrap();
        let unicode = parse("□(¬a → ◇(b ∧ a))", &v).unwrap();
        let spin = parse("[](!a -> <>(b && a))", &v).unwrap();
        assert_eq!(ascii, unicode);
        assert_eq!(ascii, spin);
    }

    #[test]
    fn iff_desugars() {
        let v = vocab();
        let (a, b) = (v.prop("a").unwrap(), v.prop("b").unwrap());
        assert_eq!(
            parse("a <-> b", &v).unwrap(),
            Ltl::iff(Ltl::prop(a), Ltl::prop(b))
        );
    }

    #[test]
    fn error_positions_reported() {
        let v = vocab();
        let err = parse("a &", &v).unwrap_err();
        assert_eq!(err.position, 3);
        let err = parse("(a", &v).unwrap_err();
        assert!(err.message.contains("closing"));
        let err = parse("nonexistent", &v).unwrap_err();
        assert!(err.message.contains("not a proposition"));
        let err = parse("a b", &v).unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse("\"oops", &v).unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    /// One formula per nesting shape, `n` levels deep.
    fn nested_shapes(n: usize) -> [String; 4] {
        [
            format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            format!("{}a", "! ".repeat(n)),
            format!("{}a", "a -> ".repeat(n)),
            format!("{}a", "a U ".repeat(n)),
        ]
    }

    /// Deep nesting is a positioned error, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error() {
        let v = vocab();
        for src in nested_shapes(100_000)
            .into_iter()
            .chain([format!("{}a", "a & ".repeat(100_000))])
        {
            let err = parse(&src, &v).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{}", err.message);
            assert!(err.position > 0 && err.position < src.len());
        }
    }

    /// A formula exactly at the limit parses, and is dropped, on a 2 MiB
    /// thread — the default test-thread stack — in a debug build; one
    /// level more is rejected.
    #[test]
    fn nesting_at_the_limit_parses_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let v = vocab();
                for (at, over) in nested_shapes(MAX_NESTING)
                    .into_iter()
                    .zip(nested_shapes(MAX_NESTING + 1))
                {
                    assert!(parse(&at, &v).is_ok(), "{}", &at[..16]);
                    assert!(parse(&over, &v).is_err(), "{}", &over[..16]);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// Every shipped rule book still parses from its printed form.
    #[test]
    fn shipped_rule_books_parse() {
        let d = autokit::presets::DrivingDomain::new();
        let specs = crate::specs::driving_specs(&d)
            .into_iter()
            .chain(crate::specs::headline_specs(&d));
        for spec in specs {
            let printed = spec.formula.to_string(&d.vocab);
            assert_eq!(
                parse(&printed, &d.vocab).unwrap(),
                spec.formula,
                "{printed}"
            );
        }
    }

    #[test]
    fn roundtrip_through_pretty_printer() {
        let v = vocab();
        for src in [
            "G(a -> F b)",
            "a U (b R a)",
            "!(a & b) | X a",
            "F G a",
            "(a <-> b) & true",
            "G(\"car from left\" -> F stop)",
        ] {
            let phi = parse(src, &v).unwrap();
            let printed = phi.to_string(&v);
            let reparsed = parse(&printed, &v).unwrap();
            assert_eq!(phi, reparsed, "roundtrip failed for `{src}` → `{printed}`");
        }
    }
}
