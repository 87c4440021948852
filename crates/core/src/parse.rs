//! Text formats for instances and queries.
//!
//! **Instances** — one fact per line, `#` comments, optional trailing dot:
//!
//! ```text
//! Hand(h)
//! hasFinger(h, f1).
//! ```
//!
//! **Queries** — one CQ per line (several lines form a UCQ), SPARQL-style
//! `?x` variables; answer variables in the head:
//!
//! ```text
//! q(?x) :- hasFinger(?x, ?y), Thumb(?y)
//! ```
//!
//! Arguments without the `?` prefix are constants.

use crate::fact::Term;
use crate::interpretation::{ArityError, Instance};
use crate::query::{Cq, CqAtom, CqBuilder, Ucq, VarOrConst};
use crate::store::FactStore;
use crate::symbols::{is_reserved_rel_name, reserved_rel_message, Vocab};
use std::collections::HashMap;
use std::fmt;

/// A parse error with its 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Scans `R(a, b)` into the relation name, the argument list text
/// between the parentheses and the number of arguments, checking that
/// no argument is empty. Allocates nothing: [`atom_args`] reads the
/// arguments back out of the list text.
fn scan_atom(text: &str, line: usize) -> Result<(&str, &str, usize), ParseError> {
    let text = text.trim().trim_end_matches('.');
    let open = text
        .find('(')
        .ok_or_else(|| err(line, format!("expected `(` in atom `{text}`")))?;
    if !text.ends_with(')') {
        return Err(err(line, format!("expected `)` at the end of `{text}`")));
    }
    let name = text[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(line, format!("bad relation name `{name}`")));
    }
    let inner = &text[open + 1..text.len() - 1];
    let mut arity = 0;
    if !inner.trim().is_empty() {
        for arg in atom_args(inner) {
            if arg.is_empty() {
                return Err(err(line, format!("empty argument in `{text}`")));
            }
            arity += 1;
        }
    }
    Ok((name, inner, arity))
}

/// The trimmed arguments of an argument list text from [`scan_atom`]
/// that holds at least one argument.
fn atom_args(inner: &str) -> impl Iterator<Item = &str> {
    inner.split(',').map(str::trim)
}

/// Splits `R(a, b)` into the relation name and trimmed argument list.
fn split_atom(text: &str, line: usize) -> Result<(&str, Vec<&str>), ParseError> {
    let (name, inner, arity) = scan_atom(text, line)?;
    let args = if arity == 0 {
        Vec::new()
    } else {
        atom_args(inner).collect()
    };
    Ok((name, args))
}

/// Parses an instance from its text representation, interning relation
/// symbols (with inferred arities) and constants into `vocab`: the
/// facts of [`parse_facts`] with the per-term index built over them.
pub fn parse_instance(text: &str, vocab: &mut Vocab) -> Result<Instance, ParseError> {
    parse_facts(text, vocab).map(Instance::from_store)
}

/// Parses instance text straight into a [`FactStore`], in one pass that
/// allocates nothing per fact, interning relation symbols (with inferred
/// arities) and constants into `vocab`. Facts keep their text order;
/// duplicates are interned once.
///
/// A relation name in the reserved namespace ([`is_reserved_rel_name`])
/// or an arity clash — with `vocab` or between two lines — refuses the
/// text, and a refused text interns no relation: the text is checked
/// through to its end before its first new name is interned. Constants
/// of the lines before a refused line stay interned.
pub fn parse_facts(text: &str, vocab: &mut Vocab) -> Result<FactStore, ParseError> {
    scan_facts(text, vocab, true)
}

/// Parses instance text over the relations `vocab` already knows, for
/// data that only lives as long as one evaluation: a fact over a
/// relation name `vocab` has never seen is dropped rather than interned,
/// so such data can never fix the arity of a name a later ontology
/// uses. Constants are interned; refusals are those of [`parse_facts`].
pub fn parse_known_facts(text: &str, vocab: &mut Vocab) -> Result<FactStore, ParseError> {
    scan_facts(text, vocab, false)
}

/// One fact line of an instance text, as [`scan_atom`] left it.
struct FactLine<'t> {
    /// 1-based line number.
    line: usize,
    name: &'t str,
    /// The argument list text (at least one argument).
    args: &'t str,
    arity: usize,
}

/// The non-blank fact lines of `text` from 1-based line `from` on.
/// Malformed atoms, argument-less facts and reserved relation names are
/// errors.
fn fact_lines(text: &str, from: usize) -> impl Iterator<Item = Result<FactLine<'_>, ParseError>> {
    text.lines()
        .enumerate()
        .skip(from - 1)
        .filter_map(|(idx, raw)| {
            let line = idx + 1;
            let atom = raw.split('#').next().unwrap_or("").trim();
            if atom.is_empty() {
                return None;
            }
            Some(scan_atom(atom, line).and_then(|(name, args, arity)| {
                if arity == 0 {
                    return Err(err(line, "facts need at least one argument"));
                }
                if is_reserved_rel_name(name) {
                    return Err(err(line, reserved_rel_message(name)));
                }
                Ok(FactLine {
                    line,
                    name,
                    args,
                    arity,
                })
            }))
        })
}

fn arity_clash(lineno: usize, name: &str, used: usize, declared: usize) -> ParseError {
    err(
        lineno,
        format!("relation `{name}` used with arity {used} but declared with {declared}"),
    )
}

fn scan_facts(text: &str, vocab: &mut Vocab, intern_rels: bool) -> Result<FactStore, ParseError> {
    let mut store = FactStore::new();
    // One argument buffer, reused by every fact.
    let mut args: Vec<Term> = Vec::new();
    // The first never-seen name triggers one check of the rest of the
    // text before it is interned; a text over known names is read once.
    let mut rest_checked = false;
    for fact in fact_lines(text, 1) {
        let fact = fact?;
        let rel = match vocab.find_rel(fact.name) {
            Some(rel) if vocab.arity(rel) != fact.arity => {
                return Err(arity_clash(
                    fact.line,
                    fact.name,
                    fact.arity,
                    vocab.arity(rel),
                ));
            }
            Some(rel) => rel,
            None if !intern_rels => continue,
            None => {
                if !rest_checked {
                    check_unseen_names(text, fact.line, vocab)?;
                    rest_checked = true;
                }
                vocab.rel(fact.name, fact.arity)
            }
        };
        args.clear();
        args.extend(atom_args(fact.args).map(|a| Term::Const(vocab.constant(a))));
        // The arity checks make this infallible, but the typed check
        // stays on in release builds: an ill-formed fact must never reach
        // the store silently.
        let expected = vocab.arity(rel);
        if expected != args.len() {
            let clash = ArityError {
                rel,
                expected,
                got: args.len(),
            };
            return Err(err(fact.line, clash.to_string()));
        }
        store.intern(rel, &args);
    }
    Ok(store)
}

/// Checks the fact lines of `text` from line `from` on without touching
/// `vocab`: every line must parse, and every relation name must keep one
/// arity — the one `vocab` holds, or the first one the text uses.
fn check_unseen_names(text: &str, from: usize, vocab: &Vocab) -> Result<(), ParseError> {
    let mut unseen: HashMap<&str, usize> = HashMap::new();
    for fact in fact_lines(text, from) {
        let fact = fact?;
        let declared = match vocab.find_rel(fact.name) {
            Some(rel) => vocab.arity(rel),
            None => *unseen.entry(fact.name).or_insert(fact.arity),
        };
        if declared != fact.arity {
            return Err(arity_clash(fact.line, fact.name, fact.arity, declared));
        }
    }
    Ok(())
}

/// Parses a UCQ: each non-empty line is one CQ `q(?x̄) :- atom, …`. All
/// disjuncts must declare the same number of answer variables.
pub fn parse_ucq(text: &str, vocab: &mut Vocab) -> Result<Ucq, ParseError> {
    let mut disjuncts: Vec<Cq> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (head, body) = line
            .split_once(":-")
            .ok_or_else(|| err(lineno, "expected `head :- body`"))?;
        let (head_name, head_args) = split_atom(head, lineno)?;
        if head_name != "q" {
            return Err(err(lineno, "the head must be `q(...)`"));
        }
        let mut builder = CqBuilder::new();
        let mut answer_vars = Vec::new();
        for a in head_args {
            let Some(vname) = a.strip_prefix('?') else {
                return Err(err(lineno, "answer positions must be ?variables"));
            };
            answer_vars.push(builder.var(vname));
        }
        // Split body atoms at top-level commas (commas inside parentheses
        // separate arguments).
        let mut depth = 0usize;
        let mut start = 0usize;
        let mut atom_texts: Vec<&str> = Vec::new();
        let body_bytes = body.as_bytes();
        for (i, &b) in body_bytes.iter().enumerate() {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| err(lineno, "unbalanced parentheses"))?
                }
                b',' if depth == 0 => {
                    atom_texts.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        atom_texts.push(&body[start..]);
        let mut atoms: Vec<CqAtom> = Vec::new();
        for at in atom_texts {
            if at.trim().is_empty() {
                continue;
            }
            let (name, args) = split_atom(at, lineno)?;
            if let Some(existing) = vocab.find_rel(name) {
                if vocab.arity(existing) != args.len() {
                    return Err(err(lineno, format!("arity mismatch for `{name}`")));
                }
            }
            let rel = vocab.rel(name, args.len());
            let parsed_args: Vec<VarOrConst> = args
                .iter()
                .map(|a| match a.strip_prefix('?') {
                    Some(v) => VarOrConst::Var(builder.var(v)),
                    None => VarOrConst::Const(vocab.constant(a)),
                })
                .collect();
            atoms.push(CqAtom {
                rel,
                args: parsed_args,
            });
        }
        if atoms.is_empty() {
            return Err(err(lineno, "a CQ needs at least one body atom"));
        }
        for v_ans in &answer_vars {
            let occurs = atoms
                .iter()
                .any(|a| a.args.contains(&VarOrConst::Var(*v_ans)));
            if !occurs {
                return Err(err(lineno, "every answer variable must occur in the body"));
            }
        }
        for ab in atoms {
            builder.atom_args(ab.rel, ab.args);
        }
        disjuncts.push(builder.build(answer_vars));
    }
    if disjuncts.is_empty() {
        return Err(err(0, "no query found"));
    }
    let arity = disjuncts[0].arity();
    if disjuncts.iter().any(|d| d.arity() != arity) {
        return Err(err(0, "all disjuncts must share the answer arity"));
    }
    Ok(Ucq::new(disjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_with_comments_and_dots() {
        let mut v = Vocab::new();
        let d = parse_instance(
            "# a tiny hand\nHand(h)\nhasFinger(h, f1).\nhasFinger(h, f2)\n",
            &mut v,
        )
        .expect("parses");
        assert_eq!(d.len(), 3);
        assert_eq!(d.dom().len(), 3);
        assert_eq!(v.arity(v.find_rel("hasFinger").expect("interned")), 2);
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut v = Vocab::new();
        let e = parse_instance("R(a,b)\nR(a)\n", &mut v).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("arity"));
    }

    #[test]
    fn refused_texts_intern_nothing() {
        let mut v = Vocab::new();
        v.rel("R", 2);
        for text in [
            "New(a)\n_goal(a, b)\n",
            "New(a)\nR(a)\n",
            "New(a)\nNew(a, b)\n",
        ] {
            let e = parse_instance(text, &mut v).unwrap_err();
            assert_eq!(e.line, 2, "{text:?}: {e}");
            assert_eq!(v.rel_count(), 1, "{text:?} interned a relation");
            assert_eq!(v.const_count(), 0, "{text:?} interned a constant");
        }
        let e = parse_instance("_dom(a)\n", &mut v).unwrap_err();
        assert!(e.message.contains("reserved"), "{e}");
    }

    #[test]
    fn known_instances_drop_facts_over_unseen_relations() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let d = parse_known_facts("R(a, b)\nworksOn(ada)\nworksOn(ada, x, y)\n", &mut v)
            .expect("parses");
        assert_eq!(d.len(), 1);
        assert_eq!(d.rel_ids(r).len(), 1);
        assert!(v.find_rel("worksOn").is_none(), "unseen names stay unseen");
        // Known relations keep their arity check, reserved names stay
        // refused even when the rewriting has interned them.
        assert!(parse_known_facts("R(a)\n", &mut v).is_err());
        v.rel("_goal", 1);
        let e = parse_known_facts("_goal(eve)\n", &mut v).unwrap_err();
        assert!(e.message.contains("reserved"), "{e}");
    }

    #[test]
    fn parses_a_conjunctive_query() {
        let mut v = Vocab::new();
        let q = parse_ucq("q(?x) :- hasFinger(?x, ?y), Thumb(?y)\n", &mut v).expect("parses");
        assert_eq!(q.arity(), 1);
        assert_eq!(q.disjuncts.len(), 1);
        assert_eq!(q.disjuncts[0].atoms.len(), 2);
        // Run it.
        let d = parse_instance("hasFinger(h, f1)\nThumb(f1)\n", &mut v).expect("parses");
        let h = v.constant("h");
        assert!(q.holds(&d, &[Term::Const(h)]));
    }

    #[test]
    fn multiple_lines_form_a_ucq() {
        let mut v = Vocab::new();
        let q = parse_ucq("q(?x) :- A(?x)\nq(?x) :- B(?x)\n", &mut v).expect("parses");
        assert_eq!(q.disjuncts.len(), 2);
        let d = parse_instance("B(b)\n", &mut v).expect("parses");
        let b = v.constant("b");
        assert!(q.holds(&d, &[Term::Const(b)]));
    }

    #[test]
    fn constants_in_queries() {
        let mut v = Vocab::new();
        let q = parse_ucq("q(?x) :- worksOn(?x, compilers)\n", &mut v).expect("parses");
        let d = parse_instance("worksOn(grete, compilers)\nworksOn(ada, poetry)\n", &mut v)
            .expect("parses");
        let answers = q.answers(&d);
        assert_eq!(answers.len(), 1);
        let g = v.constant("grete");
        assert!(answers.contains(&vec![Term::Const(g)]));
    }

    #[test]
    fn boolean_queries_have_empty_head() {
        let mut v = Vocab::new();
        let q = parse_ucq("q() :- E(?x, ?y)\n", &mut v).expect("parses");
        assert_eq!(q.arity(), 0);
        let d = parse_instance("E(a, b)\n", &mut v).expect("parses");
        assert!(q.holds_boolean(&d));
    }

    #[test]
    fn query_errors_are_located() {
        let mut v = Vocab::new();
        assert!(parse_ucq("p(?x) :- A(?x)\n", &mut v).is_err());
        assert!(parse_ucq("q(x) :- A(?x)\n", &mut v).is_err());
        assert!(parse_ucq("q(?x) :-\n", &mut v).is_err());
        assert!(parse_ucq("q(?x) :- A(?x\n", &mut v).is_err());
        assert!(parse_ucq("", &mut v).is_err());
        assert!(parse_ucq("q(?x) :- A(?x)\nq(?x,?y) :- R(?x,?y)\n", &mut v).is_err());
    }

    /// The instance parser as it was before it parsed into a store: one
    /// `Vec` per line and per fact, and an owned [`Fact`] per fact,
    /// inserted through [`Instance::insert_checked`]. The property test
    /// below holds the one-pass parser to it.
    mod reference {
        use super::super::{arity_clash, err, ParseError};
        use crate::fact::Fact;
        use crate::interpretation::Instance;
        use crate::symbols::{is_reserved_rel_name, reserved_rel_message, Vocab};
        use std::collections::HashMap;

        fn split_atom(text: &str, line: usize) -> Result<(&str, Vec<&str>), ParseError> {
            let text = text.trim().trim_end_matches('.');
            let open = text
                .find('(')
                .ok_or_else(|| err(line, format!("expected `(` in atom `{text}`")))?;
            if !text.ends_with(')') {
                return Err(err(line, format!("expected `)` at the end of `{text}`")));
            }
            let name = text[..open].trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err(line, format!("bad relation name `{name}`")));
            }
            let inner = &text[open + 1..text.len() - 1];
            let args: Vec<&str> = if inner.trim().is_empty() {
                Vec::new()
            } else {
                inner.split(',').map(|a| a.trim()).collect()
            };
            if args.iter().any(|a| a.is_empty()) {
                return Err(err(line, format!("empty argument in `{text}`")));
            }
            Ok((name, args))
        }

        type Line<'t> = (usize, &'t str, Vec<&'t str>);

        fn fact_lines(
            text: &str,
            from: usize,
        ) -> impl Iterator<Item = Result<Line<'_>, ParseError>> {
            text.lines()
                .enumerate()
                .skip(from - 1)
                .filter_map(|(idx, raw)| {
                    let lineno = idx + 1;
                    let line = raw.split('#').next().unwrap_or("").trim();
                    if line.is_empty() {
                        return None;
                    }
                    Some(split_atom(line, lineno).and_then(|(name, args)| {
                        if args.is_empty() {
                            return Err(err(lineno, "facts need at least one argument"));
                        }
                        if is_reserved_rel_name(name) {
                            return Err(err(lineno, reserved_rel_message(name)));
                        }
                        Ok((lineno, name, args))
                    }))
                })
        }

        pub fn parse_facts(
            text: &str,
            vocab: &mut Vocab,
            intern_rels: bool,
        ) -> Result<Instance, ParseError> {
            let mut d = Instance::new();
            let mut rest_checked = false;
            for line in fact_lines(text, 1) {
                let (lineno, name, args) = line?;
                let rel = match vocab.find_rel(name) {
                    Some(rel) if vocab.arity(rel) != args.len() => {
                        return Err(arity_clash(lineno, name, args.len(), vocab.arity(rel)));
                    }
                    Some(rel) => rel,
                    None if !intern_rels => continue,
                    None => {
                        if !rest_checked {
                            check_unseen_names(text, lineno, vocab)?;
                            rest_checked = true;
                        }
                        vocab.rel(name, args.len())
                    }
                };
                let consts: Vec<_> = args.iter().map(|a| vocab.constant(a)).collect();
                d.insert_checked(&Fact::consts(rel, &consts), vocab)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            Ok(d)
        }

        fn check_unseen_names(text: &str, from: usize, vocab: &Vocab) -> Result<(), ParseError> {
            let mut unseen: HashMap<&str, usize> = HashMap::new();
            for line in fact_lines(text, from) {
                let (lineno, name, args) = line?;
                let declared = match vocab.find_rel(name) {
                    Some(rel) => vocab.arity(rel),
                    None => *unseen.entry(name).or_insert(args.len()),
                };
                if declared != args.len() {
                    return Err(arity_clash(lineno, name, args.len(), declared));
                }
            }
            Ok(())
        }
    }

    /// One generated line of instance text: a well-formed fact (possibly
    /// dotted, commented or padded), a blank or comment line, or one of
    /// the malformed shapes the parser must refuse.
    fn gen_line(kind: usize, a: usize, b: usize) -> String {
        const RELS: [(&str, usize); 6] = [
            ("A", 1),
            ("R", 2),
            ("T", 3),
            ("Straße", 1),
            ("関係", 2),
            ("New", 1),
        ];
        const CONSTS: [&str; 6] = ["a", "b", "c1", "ü", "名前", "x_y"];
        let (rel, arity) = RELS[a % RELS.len()];
        let args: Vec<&str> = (0..arity)
            .map(|i| CONSTS[(b + i * a) % CONSTS.len()])
            .collect();
        let fact = format!("{rel}({})", args.join(", "));
        match kind {
            6 => format!("{fact}."),
            7 => format!("{fact}..  # note"),
            8 => format!("  {rel} ( {} )  ", args.join(" ,  ")),
            9 => String::new(),
            10 => "   # only a comment".to_owned(),
            11 => "\t ".to_owned(),
            12 => format!("{rel}({})", args.join(",")),
            13 => format!("{rel}(a,,b)"),
            14 => format!("{rel}( )"),
            15 => format!("{rel}(a"),
            16 => format!("{rel}a)"),
            17 => format!("{rel}((a)"),
            18 => ["_goal(a)", "_x(a, b)", "_dom(c1)", "_dom( )"][b % 4].to_owned(),
            19 => format!("{rel}({}, extra)", args.join(", ")),
            20 => ["Neu(a)", "Neu(a, b)", "Ünseen(名前)", "Q2(a, b)"][b % 4].to_owned(),
            21 => ["R-x(a)", "(a)", "A b(c)"][b % 3].to_owned(),
            22 => format!("{fact} trailing"),
            23 => format!("{rel}(a, )"),
            // Well-formed facts dominate, so many texts parse through.
            _ => fact,
        }
    }

    /// The facts of an instance as names, in id order.
    fn named_facts<'a>(
        facts: impl Iterator<Item = crate::store::FactRef<'a>>,
        v: &Vocab,
    ) -> Vec<String> {
        facts.map(|f| f.display(v).to_string()).collect()
    }

    fn vocab_names(v: &Vocab) -> (Vec<(String, usize)>, Vec<String>) {
        let rels = v
            .rels()
            .map(|r| (v.rel_name(r).to_owned(), v.arity(r)))
            .collect();
        let consts = (0..v.const_count() as u32)
            .map(|c| v.const_name(crate::symbols::ConstId(c)).to_owned())
            .collect();
        (rels, consts)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1000))]

        #[test]
        fn one_pass_parser_matches_the_reference(
            lines in proptest::collection::vec((0usize..48, 0usize..7, 0usize..7, 0usize..3), 0..12),
            known in proptest::strategy::Strategy::prop_map(0usize..2, |k| k == 1),
        ) {
            let mut text = String::new();
            for &(kind, a, b, end) in &lines {
                text.push_str(&gen_line(kind, a, b));
                text.push_str(["\n", "\r\n", "\n"][end]);
            }
            let mut base = Vocab::new();
            base.rel("A", 1);
            base.rel("R", 2);
            base.rel("_goal", 1);
            base.constant("b");
            let (mut got_v, mut want_v) = (base.clone(), base);
            let want = reference::parse_facts(&text, &mut want_v, !known);
            let got = if known {
                parse_known_facts(&text, &mut got_v)
            } else {
                parse_facts(&text, &mut got_v)
            };
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    proptest::prop_assert_eq!(
                        named_facts(got.iter(), &got_v),
                        named_facts(want.iter(), &want_v),
                        "text {:?}", text
                    );
                    proptest::prop_assert_eq!(got.stats(), want.store_stats());
                }
                (got, want) => proptest::prop_assert_eq!(
                    got.map(|_| ()),
                    want.map(|_| ()),
                    "text {:?}", text
                ),
            }
            proptest::prop_assert_eq!(vocab_names(&got_v), vocab_names(&want_v), "text {:?}", text);
        }
    }
}
