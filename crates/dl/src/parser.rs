//! A compact text syntax for DL ontologies.
//!
//! ```text
//! # comments start with '#'
//! Hand sub ex hasFinger.Thumb
//! Hand sub >=5 hasFinger.Top
//! A equiv B and (not C)
//! role child sub descendant
//! func(hasMother)
//! func(hasMother-)            # inverse functionality
//! ```
//!
//! Grammar (one axiom per line):
//!
//! ```text
//! axiom   := concept "sub" concept | concept "equiv" concept
//!          | "role" role "sub" role | "func" "(" role ")"
//! concept := and_c ("or" and_c)*
//! and_c   := unary ("and" unary)*
//! unary   := "not" unary | ("ex"|"all") role "." unary
//!          | (">="|"<=") INT role "." unary
//!          | "(" concept ")" | "Top" | "Bot" | NAME
//! role    := NAME ["-"]
//! ```

use crate::concept::{Concept, Role};
use crate::ontology::DlOntology;
use gomq_core::{is_reserved_rel_name, reserved_rel_message, RelId, Vocab};
use std::fmt;

/// A parse error with its 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Name(String),
    Int(u32),
    LParen,
    RParen,
    Dot,
    Minus,
    Geq,
    Leq,
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Tok>, ParseError> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => break,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '>' | '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    out.push(if c == '>' { Tok::Geq } else { Tok::Leq });
                    i += 2;
                } else {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("expected `=` after `{c}`"),
                    });
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: u32 = line[start..i].parse().map_err(|_| ParseError {
                    line: lineno,
                    message: "number too large".to_owned(),
                })?;
                out.push(Tok::Int(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_alphanumeric() || ch == '_' || ch == '`' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Tok::Name(line[start..i].to_owned()));
            }
            other => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    vocab: &'a mut Vocab,
    line: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    /// Interns a concept (arity 1) or role (arity 2) name, refusing a
    /// name the vocabulary already holds at the other arity.
    fn rel(&mut self, name: &str, arity: usize) -> Result<RelId, ParseError> {
        match self.vocab.find_rel(name) {
            Some(rel) if self.vocab.arity(rel) != arity => Err(self.err(format!(
                "relation `{name}` used with arity {arity} but declared with {}",
                self.vocab.arity(rel)
            ))),
            Some(rel) => Ok(rel),
            None => Ok(self.vocab.rel(name, arity)),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_name(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Name(n)) if n == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn role(&mut self) -> Result<Role, ParseError> {
        match self.next() {
            Some(Tok::Name(n)) => {
                let rel = self.rel(&n, 2)?;
                if matches!(self.peek(), Some(Tok::Minus)) {
                    self.pos += 1;
                    Ok(Role::inv(rel))
                } else {
                    Ok(Role::new(rel))
                }
            }
            other => Err(self.err(format!("expected role name, found {other:?}"))),
        }
    }

    fn concept(&mut self) -> Result<Concept, ParseError> {
        let mut parts = vec![self.and_concept()?];
        while matches!(self.peek(), Some(Tok::Name(n)) if n == "or") {
            self.pos += 1;
            parts.push(self.and_concept()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Concept::Or(parts)
        })
    }

    fn and_concept(&mut self) -> Result<Concept, ParseError> {
        let mut parts = vec![self.unary()?];
        while matches!(self.peek(), Some(Tok::Name(n)) if n == "and") {
            self.pos += 1;
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Concept::And(parts)
        })
    }

    fn restriction(
        &mut self,
        make: impl FnOnce(Role, Box<Concept>) -> Concept,
    ) -> Result<Concept, ParseError> {
        let role = self.role()?;
        match self.next() {
            Some(Tok::Dot) => {}
            other => return Err(self.err(format!("expected `.`, found {other:?}"))),
        }
        let inner = self.unary()?;
        Ok(make(role, Box::new(inner)))
    }

    fn unary(&mut self) -> Result<Concept, ParseError> {
        match self.next() {
            Some(Tok::Name(n)) => match n.as_str() {
                "not" => Ok(self.unary()?.neg()),
                "ex" => self.restriction(Concept::Exists),
                "all" => self.restriction(Concept::Forall),
                "Top" => Ok(Concept::Top),
                "Bot" => Ok(Concept::Bot),
                "and" | "or" | "sub" | "equiv" => {
                    Err(self.err(format!("unexpected keyword `{n}`")))
                }
                name => Ok(Concept::Name(self.rel(name, 1)?)),
            },
            Some(Tok::Geq) => {
                let n = self.int()?;
                if n == 0 {
                    return Ok(Concept::Top);
                }
                self.restriction(move |r, c| Concept::AtLeast(n, r, c))
            }
            Some(Tok::Leq) => {
                let n = self.int()?;
                self.restriction(move |r, c| Concept::AtMost(n, r, c))
            }
            Some(Tok::LParen) => {
                let c = self.concept()?;
                match self.next() {
                    Some(Tok::RParen) => Ok(c),
                    other => Err(self.err(format!("expected `)`, found {other:?}"))),
                }
            }
            other => Err(self.err(format!("expected concept, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<u32, ParseError> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }
}

/// Parses an ontology from its text representation, interning symbols into
/// `vocab` (concept names as unary relations, role names as binary).
///
/// Every line is tokenized before anything is interned, so a text naming
/// a relation in the reserved namespace ([`is_reserved_rel_name`]) is
/// refused with `vocab` untouched. A name used at an arity `vocab`
/// already holds it at differently (a concept name used as a role, or
/// the reverse) is a [`ParseError`] too.
///
/// ```
/// use gomq_core::Vocab;
/// use gomq_dl::parser::parse_ontology;
///
/// let mut vocab = Vocab::new();
/// let onto = parse_ontology(
///     "Hand sub >=5 hasFinger.Top\nfunc(hasMother-)\n",
///     &mut vocab,
/// ).unwrap();
/// assert_eq!(onto.axioms.len(), 2);
/// assert_eq!(gomq_dl::depth::ontology_depth(&onto), 1);
/// ```
pub fn parse_ontology(text: &str, vocab: &mut Vocab) -> Result<DlOntology, ParseError> {
    let mut lines = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let toks = tokenize(raw_line, lineno)?;
        let reserved = toks.iter().find_map(|t| match t {
            Tok::Name(n) if is_reserved_rel_name(n) => Some(n),
            _ => None,
        });
        if let Some(name) = reserved {
            return Err(ParseError {
                line: lineno,
                message: reserved_rel_message(name),
            });
        }
        if !toks.is_empty() {
            lines.push((lineno, toks));
        }
    }
    let mut onto = DlOntology::new();
    for (lineno, toks) in lines {
        let mut p = Parser {
            toks,
            pos: 0,
            vocab,
            line: lineno,
        };
        match p.peek() {
            Some(Tok::Name(n)) if n == "role" => {
                p.pos += 1;
                let r = p.role()?;
                p.expect_name("sub")?;
                let s = p.role()?;
                onto.role_sub(r, s);
            }
            Some(Tok::Name(n)) if n == "trans" => {
                p.pos += 1;
                match p.next() {
                    Some(Tok::LParen) => {}
                    other => return Err(p.err(format!("expected `(`, found {other:?}"))),
                }
                let r = p.role()?;
                match p.next() {
                    Some(Tok::RParen) => {}
                    other => return Err(p.err(format!("expected `)`, found {other:?}"))),
                }
                onto.transitive(r);
            }
            Some(Tok::Name(n)) if n == "func" => {
                p.pos += 1;
                match p.next() {
                    Some(Tok::LParen) => {}
                    other => return Err(p.err(format!("expected `(`, found {other:?}"))),
                }
                let r = p.role()?;
                match p.next() {
                    Some(Tok::RParen) => {}
                    other => return Err(p.err(format!("expected `)`, found {other:?}"))),
                }
                onto.functional(r);
            }
            _ => {
                let c = p.concept()?;
                match p.next() {
                    Some(Tok::Name(k)) if k == "sub" => {
                        let d = p.concept()?;
                        onto.sub(c, d);
                    }
                    Some(Tok::Name(k)) if k == "equiv" => {
                        let d = p.concept()?;
                        onto.equiv(c, d);
                    }
                    other => return Err(p.err(format!("expected `sub`/`equiv`, found {other:?}"))),
                }
            }
        }
        if p.pos != p.toks.len() {
            return Err(p.err("trailing tokens after axiom"));
        }
    }
    Ok(onto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth::ontology_depth;
    use crate::lang::DlFeatures;

    #[test]
    fn parses_hand_finger_ontologies() {
        let mut v = Vocab::new();
        let text = "\
# O1 and O2 from the paper's introduction
Hand sub >=5 hasFinger.Top and <=5 hasFinger.Top
Hand sub ex hasFinger.Thumb
";
        let o = parse_ontology(text, &mut v).expect("parses");
        assert_eq!(o.axioms.len(), 2);
        assert_eq!(ontology_depth(&o), 1);
        let f = DlFeatures::of(&o);
        assert!(f.qualified_number);
    }

    #[test]
    fn parses_role_axioms_and_functionality() {
        let mut v = Vocab::new();
        let text = "\
role child sub descendant
func(hasMother)
func(hasMother-)
";
        let o = parse_ontology(text, &mut v).expect("parses");
        assert_eq!(o.role_inclusions().count(), 1);
        let funcs: Vec<_> = o.functional_roles().collect();
        assert_eq!(funcs.len(), 2);
        assert!(!funcs[0].inverse);
        assert!(funcs[1].inverse);
    }

    #[test]
    fn precedence_and_parens() {
        let mut v = Vocab::new();
        let o = parse_ontology("A sub B and C or D\n", &mut v).expect("parses");
        // (B ⊓ C) ⊔ D
        match &o.axioms[0] {
            crate::ontology::Axiom::ConceptInclusion(_, d) => match d {
                Concept::Or(parts) => {
                    assert_eq!(parts.len(), 2);
                    assert!(matches!(parts[0], Concept::And(_)));
                }
                other => panic!("expected Or, got {other:?}"),
            },
            _ => panic!("expected inclusion"),
        }
        let o2 = parse_ontology("A sub B and (C or D)\n", &mut v).expect("parses");
        match &o2.axioms[0] {
            crate::ontology::Axiom::ConceptInclusion(_, d) => {
                assert!(matches!(d, Concept::And(_)));
            }
            _ => panic!("expected inclusion"),
        }
    }

    #[test]
    fn nested_restrictions() {
        let mut v = Vocab::new();
        let o = parse_ontology("A sub ex R.(all S-.(not B))\n", &mut v).expect("parses");
        assert_eq!(ontology_depth(&o), 2);
        let f = DlFeatures::of(&o);
        assert!(f.inverse);
    }

    #[test]
    fn error_reporting_includes_line() {
        let mut v = Vocab::new();
        let err = parse_ontology("A sub B\nA sub\n", &mut v).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn arity_clashes_are_parse_errors() {
        let mut v = Vocab::new();
        let err = parse_ontology("A sub ex A.B\n", &mut v).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("`A` used with arity 2"), "{err}");
        // Against names an earlier text interned, both ways round.
        parse_ontology("X sub ex worksOn.Y\n", &mut v).expect("parses");
        assert!(parse_ontology("worksOn sub Y\n", &mut v).is_err());
        assert!(parse_ontology("Z sub ex X.Y\n", &mut v).is_err());
    }

    #[test]
    fn reserved_names_are_refused_before_interning() {
        let mut v = Vocab::new();
        for text in [
            "A sub B\nC sub _goal\n",
            "A sub ex _goal.B\n",
            "role _r sub S\n",
        ] {
            let err = parse_ontology(text, &mut v).unwrap_err();
            assert!(err.message.contains("reserved"), "{text:?}: {err}");
            assert_eq!(v.rel_count(), 0, "{text:?} interned a relation");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut v = Vocab::new();
        assert!(parse_ontology("A sub B C\n", &mut v).is_err());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let mut v = Vocab::new();
        let o = parse_ontology("# nothing\n\n   \nA sub Top\n", &mut v).expect("parses");
        assert_eq!(o.axioms.len(), 1);
    }

    #[test]
    fn display_parse_roundtrip() {
        let mut v = Vocab::new();
        let text = "Hand sub ex hasFinger.Thumb\nrole child sub descendant\nfunc(hasMother-)\n";
        let o = parse_ontology(text, &mut v).expect("parses");
        let printed = format!("{}", o.display(&v));
        let o2 = parse_ontology(&printed, &mut v).expect("reparses");
        assert_eq!(o, o2);
    }

    #[test]
    fn transitivity_token() {
        let mut v = Vocab::new();
        let o = parse_ontology("trans(partOf)\nA sub ex partOf.B\n", &mut v).expect("parses");
        assert_eq!(o.transitive_roles().count(), 1);
        let f = DlFeatures::of(&o);
        assert!(f.transitivity);
        assert!(!f.within_alchif());
        // Display round-trips.
        let printed = format!("{}", o.display(&v));
        assert!(printed.contains("trans(partOf)"));
        let o2 = parse_ontology(&printed, &mut v).expect("reparses");
        assert_eq!(o, o2);
    }

    #[test]
    fn local_functionality_token() {
        let mut v = Vocab::new();
        let o = parse_ontology("A sub <=1 R.Top\n", &mut v).expect("parses");
        let f = DlFeatures::of(&o);
        assert!(f.local_functionality && !f.qualified_number);
    }
}
