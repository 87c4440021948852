//! Element types and type elimination for ∀x-guarded uGF₂(1) ontologies.
//!
//! Supported ontologies are sets of sentences `∀x(x = x → φ(x))` where
//! `φ` is a boolean combination of unary atoms `A(x)` and guarded
//! quantifiers over a single inner variable,
//!
//! ```text
//! ∃y(R(x,y) ∧ ψ(y))   ∃y(R(y,x) ∧ ψ(y))   ∀y(R(x,y) → ψ(y))   ∀y(R(y,x) → ψ(y))
//! ```
//!
//! with `ψ` a boolean combination of unary atoms over `y`, plus
//!
//! * distinct-witness variants `∃y(R(x,y) ∧ x ≠ y ∧ ψ)` (uGF⁻(1,=)),
//! * guarded counting `∃≥n y(R(x,y) ∧ ψ)` (uGC⁻₂(1,=)),
//! * functionality declarations, compiled as `¬∃≥2` constraints —
//!
//! i.e. the guarded-fragment translations of ALCIQ(F) ontologies of
//! depth 1 (role hierarchies are the one ALCHIQ constructor left to the
//! general engine).
//!
//! An *element type* assigns a truth value to every unary relation and
//! every quantified subformula of the closure. The system computes:
//!
//! 1. the boolean-consistent types (every sentence body true),
//! 2. the globally realizable types `T*` by *type elimination*: a type
//!    whose existential requirements (a true `∃`, or a false `∀`) cannot
//!    be witnessed by surviving types is discarded,
//! 3. per-instance surviving type sets by arc-consistency propagation
//!    along the instance's edges — the computation performed by the
//!    paper's Theorem-5 Datalog≠ program on guarded tuples.
//!
//! For unravelling-tolerant ontologies the resulting certain answers to
//! atomic queries coincide with the model-theoretic ones; for
//! non-unravelling-tolerant ontologies (e.g. the paper's Example 6) they
//! may differ — which is precisely the paper's point, and is demonstrated
//! in the experiment suite.

use gomq_core::bitset::{self, BitMatrix};
use gomq_core::{FactId, FactStore, Instance, RelId, Term, TermInterner, Vocab};
use gomq_datalog::eval::EvalStats;
use gomq_datalog::{Budget, BudgetExceeded};
use gomq_logic::{Formula, GfOntology, Guard, LVar};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Rewriting failure: the ontology is outside the supported fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteError(pub String);

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not rewritable by the element-type engine: {}", self.0)
    }
}

impl std::error::Error for RewriteError {}

/// Quantifier kind of a closure entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum QuantKind {
    /// `∃y(α ∧ ψ)`.
    Exists,
    /// `∀y(α → ψ)`.
    Forall,
}

/// Guard orientation of a closure entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Orientation {
    /// Guard `R(x,y)` — the witness is a successor.
    Fwd,
    /// Guard `R(y,x)` — the witness is a predecessor.
    Bwd,
}

/// A compiled boolean expression over closure indices.
#[derive(Clone, PartialEq, Eq, Debug)]
enum LocalExpr {
    True,
    False,
    Unary(usize),
    Quant(usize),
    Not(Box<LocalExpr>),
    And(Vec<LocalExpr>),
    Or(Vec<LocalExpr>),
}

impl LocalExpr {
    fn eval(&self, ty: &TypeBits) -> bool {
        match self {
            LocalExpr::True => true,
            LocalExpr::False => false,
            LocalExpr::Unary(i) => ty.unary[*i],
            LocalExpr::Quant(i) => ty.quant[*i],
            LocalExpr::Not(e) => !e.eval(ty),
            LocalExpr::And(es) => es.iter().all(|e| e.eval(ty)),
            LocalExpr::Or(es) => es.iter().any(|e| e.eval(ty)),
        }
    }
}

/// A quantified closure entry.
#[derive(Clone, PartialEq, Eq, Debug)]
struct QuantSub {
    kind: QuantKind,
    orient: Orientation,
    rel: RelId,
    /// Whether the quantifier is restricted to *distinct* witnesses: the
    /// `∃y(R(x,y) ∧ x ≠ y ∧ ψ)` / `∀y(R(x,y) → x = y ∨ ψ)` shapes of the
    /// uGF⁻(1,=) fragment. Distinct quantifiers ignore self-loops, and
    /// their presence turns the emitted program into genuine Datalog≠.
    distinct: bool,
    /// The counting threshold: 1 for plain `∃`/`∀`, `n` for the guarded
    /// counting quantifier `∃≥n` of uGC⁻₂(1,=). Thresholds ≥ 2 are
    /// enforced by a dedicated counting pass (and counting Datalog≠
    /// rules) instead of pairwise edge compatibility.
    count: u32,
    /// Inner formula over the witness, compiled against the unary closure.
    inner: LocalExpr,
}

/// A counting constraint handed to the Datalog emitter: `(type index,
/// relation, forward?, threshold, loop-witness?, distinct?, avoiders)`.
pub(crate) type CountingConstraint = (usize, RelId, bool, u32, bool, bool, Vec<usize>);

/// A truth assignment to the closure: one bit per unary relation and per
/// quantified subformula.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeBits {
    unary: Vec<bool>,
    quant: Vec<bool>,
}

/// The compiled type system of an ontology.
pub struct ElementTypeSystem {
    unary_rels: Vec<RelId>,
    binary_rels: Vec<RelId>,
    quants: Vec<QuantSub>,
    /// Reflexive-transitive role-hierarchy closure: for each relation,
    /// its super-roles as `(relation, flipped orientation?)` pairs. An
    /// `R(a,b)` edge then also triggers the constraints of every
    /// super-role (the `H` of ALCHIQ).
    supers: BTreeMap<RelId, BTreeSet<(RelId, bool)>>,
    /// Globally realizable types `T*`.
    types: Vec<TypeBits>,
    /// The bit-parallel propagation kernel, built lazily on first use.
    /// Its compat matrices quantify over `types`, which is only final
    /// after `global_elimination` — hence the lazy cell rather than an
    /// eager field of `build`.
    kernel: OnceLock<TypeKernel>,
}

impl fmt::Debug for ElementTypeSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElementTypeSystem")
            .field("types", &self.types.len())
            .field("closure_bits", &self.closure_bits())
            .field("binary_rels", &self.binary_rels.len())
            .finish_non_exhaustive()
    }
}

/// Counters and timings of one bitset-kernel [`ElementTypeSystem::instance_types`] run.
///
/// `build_ns`/`compat_bits` describe the (cached, per-ontology) kernel;
/// the remaining fields describe the per-instance propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TypeStats {
    /// Active-domain size of the instance.
    pub elements: usize,
    /// Binary facts visited (proper edges + self-loops).
    pub edges: usize,
    /// AC-3 arc revisions performed until fixpoint.
    pub arcs_revised: usize,
    /// Total set bits across the kernel's compatibility matrices.
    pub compat_bits: usize,
    /// Wall time to build the kernel (paid once per ontology).
    pub build_ns: u64,
    /// Wall time of this instance's propagation.
    pub propagate_ns: u64,
}

/// Per-instance elimination result.
#[derive(Clone, Debug)]
pub struct InstanceTypes {
    /// Indices into `T*` surviving at each element.
    pub surviving: BTreeMap<Term, BTreeSet<usize>>,
    /// Whether some element has no surviving type (inconsistency).
    pub inconsistent: bool,
    /// Propagation rounds until fixpoint.
    pub rounds: usize,
    /// Kernel counters (zeroed by the reference implementation).
    pub stats: TypeStats,
}

/// Shape statistics of an ontology's closure, from the compile phase
/// alone (no type enumeration).
#[derive(Clone, Copy, Debug)]
pub struct ClosureStats {
    /// Total closure bits (unary relations + quantified subformulas).
    pub bits: usize,
    /// Number of quantified subformulas.
    pub quants: usize,
    /// Role inclusions recognised.
    pub role_inclusions: usize,
    /// Whether counting thresholds ≥ 2 occur.
    pub counting: bool,
    /// Whether distinct-witness quantifiers occur.
    pub distinct: bool,
}

/// Checks whether the element-type machinery *applies* to the ontology
/// (the Theorem-13 shape: equality-guarded depth ≤ 1 over a binary
/// signature with counting/functionality/hierarchies) and reports the
/// closure size — without enumerating types, so it is cheap even for
/// ontologies whose closure exceeds the enumeration cap.
pub fn closure_stats(o: &GfOntology, vocab: &Vocab) -> Result<ClosureStats, RewriteError> {
    if !o.transitive.is_empty() {
        return Err(RewriteError("transitivity declarations".into()));
    }
    let mut unary_rels: Vec<RelId> = Vec::new();
    for r in o.sig() {
        match vocab.arity(r) {
            1 => unary_rels.push(r),
            2 => {}
            a => {
                return Err(RewriteError(format!(
                    "relation {} has arity {a} > 2",
                    vocab.rel_name(r)
                )))
            }
        }
    }
    if !o.other_sentences.is_empty() {
        return Err(RewriteError("non-uGF sentences".into()));
    }
    let mut builder = Builder {
        unary_rels,
        quants: Vec::new(),
    };
    let mut role_inclusions = 0usize;
    for s in &o.ugf_sentences {
        if detect_role_inclusion(s).is_some() {
            role_inclusions += 1;
            continue;
        }
        let [x] = s.qvars.as_slice() else {
            return Err(RewriteError(
                "sentence quantifies more than one variable".into(),
            ));
        };
        if !matches!(&s.guard, Guard::Eq(a, b) if a == b) {
            return Err(RewriteError(
                "outermost guard must be the equality x = x".into(),
            ));
        }
        builder.compile_outer(&s.body, *x)?;
    }
    Ok(ClosureStats {
        bits: builder.unary_rels.len() + builder.quants.len(),
        quants: builder.quants.len(),
        role_inclusions,
        counting: builder.quants.iter().any(|q| q.count > 1)
            || !o.functional.is_empty()
            || !o.inverse_functional.is_empty(),
        distinct: builder.quants.iter().any(|q| q.distinct),
    })
}

impl ElementTypeSystem {
    /// Compiles the type system of an ontology.
    ///
    /// Fails with [`RewriteError`] if a sentence is outside the supported
    /// `∀x φ(x)` / ALCI-depth-1 shape, or the closure exceeds 20 bits.
    pub fn build(o: &GfOntology, vocab: &Vocab) -> Result<Self, RewriteError> {
        if !o.transitive.is_empty() {
            return Err(RewriteError("transitivity declarations".into()));
        }
        if !o.other_sentences.is_empty() {
            return Err(RewriteError("non-uGF sentences".into()));
        }
        // Closure skeleton: unary relations of the signature.
        let sig = o.sig();
        let mut unary_rels: Vec<RelId> = Vec::new();
        let mut binary_rels: Vec<RelId> = Vec::new();
        for &r in &sig {
            match vocab.arity(r) {
                1 => unary_rels.push(r),
                2 => binary_rels.push(r),
                a => {
                    return Err(RewriteError(format!(
                        "relation {} has arity {a} > 2",
                        vocab.rel_name(r)
                    )))
                }
            }
        }
        let mut builder = Builder {
            unary_rels,
            quants: Vec::new(),
        };
        let mut bodies: Vec<LocalExpr> = Vec::new();
        let mut inclusions: Vec<(RelId, RelId, bool)> = Vec::new();
        for s in &o.ugf_sentences {
            // Role inclusions `∀xy(R°(x,y) → S°(x,y))` — in either the
            // one-variable equality-guarded form or the two-variable
            // guarded form — feed the hierarchy closure instead of the
            // boolean closure.
            if let Some(incl) = detect_role_inclusion(s) {
                inclusions.push(incl);
                continue;
            }
            let [x] = s.qvars.as_slice() else {
                return Err(RewriteError(
                    "sentence quantifies more than one variable".into(),
                ));
            };
            if !matches!(&s.guard, Guard::Eq(a, b) if a == b) {
                return Err(RewriteError(
                    "outermost guard must be the equality x = x".into(),
                ));
            }
            bodies.push(builder.compile_outer(&s.body, *x)?);
        }
        // Functionality declarations compile as global counting
        // constraints: func(R) ≡ ∀x ¬∃≥2y R(x,y) (and the inverse
        // direction with the backward guard).
        for (&rel, orient) in o
            .functional
            .iter()
            .map(|r| (r, Orientation::Fwd))
            .chain(o.inverse_functional.iter().map(|r| (r, Orientation::Bwd)))
        {
            let idx = builder.intern_quant(QuantSub {
                kind: QuantKind::Exists,
                orient,
                rel,
                distinct: false,
                count: 2,
                inner: LocalExpr::True,
            });
            bodies.push(LocalExpr::Not(Box::new(LocalExpr::Quant(idx))));
        }
        let n_bits = builder.unary_rels.len() + builder.quants.len();
        if n_bits > 20 {
            return Err(RewriteError(format!("closure too large ({n_bits} bits)")));
        }
        // Enumerate boolean-consistent types: every mask is written into
        // one buffer, and only the survivors are cloned.
        let nu = builder.unary_rels.len();
        let nq = builder.quants.len();
        let mut types: Vec<TypeBits> = Vec::new();
        let mut ty = TypeBits {
            unary: vec![false; nu],
            quant: vec![false; nq],
        };
        for mask in 0u32..(1u32 << n_bits) {
            for (i, bit) in ty.unary.iter_mut().chain(ty.quant.iter_mut()).enumerate() {
                *bit = mask & (1 << i) != 0;
            }
            if bodies.iter().all(|b| b.eval(&ty)) {
                types.push(ty.clone());
            }
        }
        let binary_rels = binary_rels_of(&builder.quants, &sig, vocab);
        // Reflexive-transitive closure of the role hierarchy.
        let mut supers: BTreeMap<RelId, BTreeSet<(RelId, bool)>> = BTreeMap::new();
        for &r in &binary_rels {
            supers.entry(r).or_default().insert((r, false));
        }
        loop {
            let mut changed = false;
            for &r in &binary_rels {
                let current: Vec<(RelId, bool)> =
                    supers.get(&r).into_iter().flatten().copied().collect();
                for (mid, f1) in current {
                    for &(sub, sup, f2) in &inclusions {
                        if sub == mid {
                            let entry = supers.entry(r).or_default();
                            if entry.insert((sup, f1 ^ f2)) {
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut system = ElementTypeSystem {
            unary_rels: builder.unary_rels,
            binary_rels,
            quants: builder.quants,
            supers,
            types,
            kernel: OnceLock::new(),
        };
        // Arithmetic consistency: a true `∃≥k` cannot exceed the type's
        // own successor cap (e.g. ∃≥2 together with functionality).
        let mut types = std::mem::take(&mut system.types);
        types.retain(|t| {
            system.quants.iter().enumerate().all(|(qi, q)| {
                !(q.kind == QuantKind::Exists && t.quant[qi])
                    || q.count <= system.successor_cap(t, q.rel, q.orient)
            })
        });
        system.types = types;
        system.global_elimination();
        // The system lives as long as its cached plan.
        system.types.shrink_to_fit();
        Ok(system)
    }

    /// Global type elimination: discard types whose existential
    /// requirements cannot be witnessed among surviving types.
    fn global_elimination(&mut self) {
        loop {
            // Every type is judged against the same pool, this round's.
            let keep: Vec<bool> = self
                .types
                .iter()
                .map(|t| self.requirements_witnessed(t, &self.types))
                .collect();
            if keep.iter().all(|&k| k) {
                return;
            }
            let mut keep = keep.into_iter();
            self.types.retain(|_| keep.next() == Some(true));
        }
    }

    /// Whether every existential requirement of `t` has a witness in
    /// `pool`.
    fn requirements_witnessed(&self, t: &TypeBits, pool: &[TypeBits]) -> bool {
        for (qi, q) in self.quants.iter().enumerate() {
            let needs_witness = match q.kind {
                QuantKind::Exists => t.quant[qi],
                QuantKind::Forall => !t.quant[qi],
            };
            if !needs_witness {
                continue;
            }
            let witness_ok = |w: &TypeBits| {
                // The witness must realize (or refute) the inner formula…
                let inner_val = q.inner.eval(w);
                let inner_needed = match q.kind {
                    QuantKind::Exists => inner_val,
                    QuantKind::Forall => !inner_val,
                };
                if !inner_needed {
                    return false;
                }
                // …and the witness edge must be jointly compatible.
                match q.orient {
                    Orientation::Fwd => self.compat_edge(t, w, q.rel),
                    Orientation::Bwd => self.compat_edge(w, t, q.rel),
                }
            };
            if !pool.iter().any(witness_ok) {
                return false;
            }
        }
        true
    }

    /// Whether the types `src` and `dst` are jointly satisfiable across an
    /// `R(src, dst)` edge between *distinct* elements.
    pub fn compat_edge(&self, src: &TypeBits, dst: &TypeBits, rel: RelId) -> bool {
        self.compat(src, dst, rel, false)
    }

    /// Whether the type `t` is satisfiable in the presence of a self-loop
    /// `R(a, a)` (the element is its own successor and predecessor, so
    /// both roles constrain the same type — distinct quantifiers ignore
    /// the loop).
    pub fn compat_self_loop(&self, t: &TypeBits, rel: RelId) -> bool {
        self.compat(t, t, rel, true)
    }

    fn compat(&self, src: &TypeBits, dst: &TypeBits, rel: RelId, is_loop: bool) -> bool {
        // An R-edge is also an S-edge for every super-role S (possibly
        // with flipped orientation).
        match self.supers.get(&rel) {
            Some(sups) => sups.iter().all(|&(s, flipped)| {
                if flipped {
                    self.compat_single(dst, src, s, is_loop)
                } else {
                    self.compat_single(src, dst, s, is_loop)
                }
            }),
            None => self.compat_single(src, dst, rel, is_loop),
        }
    }

    fn compat_single(&self, src: &TypeBits, dst: &TypeBits, rel: RelId, is_loop: bool) -> bool {
        for (qi, q) in self.quants.iter().enumerate() {
            if q.rel != rel {
                continue;
            }
            if q.distinct && is_loop {
                continue; // a self-loop is not a distinct witness
            }
            if q.kind == QuantKind::Exists && q.count > 1 {
                continue; // thresholds ≥ 2 are enforced by the counting pass
            }
            let ok = match (q.kind, q.orient) {
                // ∀y(R(x,y) → ψ) true at src forces ψ at dst.
                (QuantKind::Forall, Orientation::Fwd) => !src.quant[qi] || q.inner.eval(dst),
                // ∃y(R(x,y) ∧ ψ) false at src forbids ψ at dst.
                (QuantKind::Exists, Orientation::Fwd) => src.quant[qi] || !q.inner.eval(dst),
                // ∀y(R(y,x) → ψ) true at dst forces ψ at src.
                (QuantKind::Forall, Orientation::Bwd) => !dst.quant[qi] || q.inner.eval(src),
                // ∃y(R(y,x) ∧ ψ) false at dst forbids ψ at src.
                (QuantKind::Exists, Orientation::Bwd) => dst.quant[qi] || !q.inner.eval(src),
            };
            if !ok {
                return false;
            }
        }
        // Derived universals: if a type asserts ∃≥k(r, ψ) and caps its
        // total successor count at U ≤ k (e.g. functionality: ¬∃≥2 ⊤),
        // then *every* successor — in particular this edge's endpoint —
        // must satisfy ψ.
        for (holder, target, orient) in [(src, dst, Orientation::Fwd), (dst, src, Orientation::Bwd)]
        {
            let cap = self.successor_cap(holder, rel, orient);
            if cap == u32::MAX {
                continue;
            }
            for (qi, q) in self.quants.iter().enumerate() {
                if q.rel != rel
                    || q.orient != orient
                    || q.kind != QuantKind::Exists
                    || q.distinct
                    || !holder.quant[qi]
                {
                    continue;
                }
                if q.count >= cap && !q.inner.eval(target) {
                    return false;
                }
            }
        }
        true
    }

    /// The tightest upper bound on the number of `orient`-successors a
    /// type allows via a FALSE non-distinct `∃≥m(r, ⊤)`: the bound is
    /// `m − 1` (or `u32::MAX` when unbounded).
    fn successor_cap(&self, t: &TypeBits, rel: RelId, orient: Orientation) -> u32 {
        let mut cap = u32::MAX;
        for (qi, q) in self.quants.iter().enumerate() {
            if q.rel == rel
                && q.orient == orient
                && q.kind == QuantKind::Exists
                && !q.distinct
                && q.inner == LocalExpr::True
                && !t.quant[qi]
            {
                cap = cap.min(q.count - 1);
            }
        }
        cap
    }

    /// Whether any quantifier of the closure is distinctness-restricted —
    /// in that case the emitted rewriting needs inequality (Datalog≠).
    pub fn uses_distinctness(&self) -> bool {
        self.quants.iter().any(|q| q.distinct)
    }

    /// Whether any quantifier carries a counting threshold ≥ 2.
    pub fn uses_counting(&self) -> bool {
        self.quants.iter().any(|q| q.count > 1)
    }

    /// The sub-roles of `sup` (relations whose edges count as `sup`
    /// edges), as `(relation, flipped)` pairs; includes `sup` itself.
    pub(crate) fn sub_rels(&self, sup: RelId) -> Vec<(RelId, bool)> {
        self.supers
            .iter()
            .flat_map(|(&r, sups)| {
                sups.iter()
                    .filter(move |&&(s, _)| s == sup)
                    .map(move |&(_, f)| (r, f))
            })
            .collect()
    }

    /// The counting constraints relevant to the Datalog emitter: for each
    /// type index and each `∃≥n` quantifier that is *false* in the type,
    /// `(type, rel, orientation-is-forward, n, distinct, avoider type
    /// indices)` — the type is eliminated once `n` distinct neighbours
    /// all have every avoider type eliminated.
    pub(crate) fn counting_constraints(&self) -> Vec<CountingConstraint> {
        let mut out = Vec::new();
        for (qi, q) in self.quants.iter().enumerate() {
            if q.kind != QuantKind::Exists || q.count < 2 {
                continue;
            }
            for (ti, t) in self.types.iter().enumerate() {
                if t.quant[qi] {
                    continue; // only a FALSE ∃≥n constrains neighbours
                }
                let avoiders: Vec<usize> = self
                    .types
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| {
                        let pair_ok = match q.orient {
                            Orientation::Fwd => self.compat(t, w, q.rel, false),
                            Orientation::Bwd => self.compat(w, t, q.rel, false),
                        };
                        pair_ok && !q.inner.eval(w)
                    })
                    .map(|(j, _)| j)
                    .collect();
                // Whether a self-loop contributes a forced witness for
                // this type (non-distinct quantifier with ψ true at t).
                let loop_witness = !q.distinct && q.inner.eval(t);
                out.push((
                    ti,
                    q.rel,
                    q.orient == Orientation::Fwd,
                    q.count,
                    loop_witness,
                    q.distinct,
                    avoiders,
                ));
            }
        }
        out
    }

    /// The globally realizable types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The closure size in bits.
    pub fn closure_bits(&self) -> usize {
        self.unary_rels.len() + self.quants.len()
    }

    /// Whether the type with the given index makes the unary relation true.
    pub fn type_has_unary(&self, type_idx: usize, rel: RelId) -> Option<bool> {
        let ui = self.unary_rels.iter().position(|&r| r == rel)?;
        Some(self.types[type_idx].unary[ui])
    }

    /// The binary relations tracked by the system.
    pub fn binary_rels(&self) -> &[RelId] {
        &self.binary_rels
    }

    /// The unary relations of the closure.
    pub fn unary_rels(&self) -> &[RelId] {
        &self.unary_rels
    }

    /// Internal access for the Datalog emitter.
    pub(crate) fn types(&self) -> &[TypeBits] {
        &self.types
    }

    /// The compiled bit-parallel propagation kernel, built on first use
    /// and cached for the lifetime of the system. Building costs one
    /// `compat_edge` sweep per relation over `|T*|²` type pairs — the
    /// price of a *single* edge visit of the reference propagation —
    /// after which every instance-time revision is pure word arithmetic.
    pub fn kernel(&self) -> &TypeKernel {
        self.kernel.get_or_init(|| self.build_kernel())
    }

    fn build_kernel(&self) -> TypeKernel {
        let t0 = Instant::now();
        let n = self.types.len();
        let words = bitset::words_for(n);
        let mut fwd = Vec::with_capacity(self.binary_rels.len());
        let mut bwd = Vec::with_capacity(self.binary_rels.len());
        let mut loop_ok = Vec::with_capacity(self.binary_rels.len());
        for &r in &self.binary_rels {
            let mut f = BitMatrix::new(n, n);
            let mut b = BitMatrix::new(n, n);
            for (ti, t) in self.types.iter().enumerate() {
                for (tj, w) in self.types.iter().enumerate() {
                    if self.compat_edge(t, w, r) {
                        f.set(ti, tj);
                        b.set(tj, ti);
                    }
                }
            }
            let mut lo = vec![0u64; words];
            for (ti, t) in self.types.iter().enumerate() {
                if self.compat_self_loop(t, r) {
                    bitset::set_bit(&mut lo, ti);
                }
            }
            fwd.push(f);
            bwd.push(b);
            loop_ok.push(lo);
        }
        let mut unary_ok = Vec::with_capacity(self.unary_rels.len());
        for ui in 0..self.unary_rels.len() {
            let mut row = vec![0u64; words];
            for (ti, t) in self.types.iter().enumerate() {
                if t.unary[ui] {
                    bitset::set_bit(&mut row, ti);
                }
            }
            unary_ok.push(row);
        }
        let rel_index: BTreeMap<RelId, usize> = self
            .binary_rels
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i))
            .collect();
        let mut counting = Vec::new();
        for (qi, q) in self.quants.iter().enumerate() {
            if q.kind != QuantKind::Exists || q.count < 2 {
                continue;
            }
            let ri = rel_index[&q.rel];
            let subs: Vec<(usize, bool)> = self
                .sub_rels(q.rel)
                .iter()
                .map(|&(r2, flipped)| (rel_index[&r2], (q.orient == Orientation::Fwd) != flipped))
                .collect();
            let mut inner_false = vec![0u64; words];
            for (tj, w) in self.types.iter().enumerate() {
                if !q.inner.eval(w) {
                    bitset::set_bit(&mut inner_false, tj);
                }
            }
            let mut binds = vec![false; n];
            let mut avoid = BitMatrix::new(n, n);
            let mut loop_witness = vec![false; n];
            for (ti, t) in self.types.iter().enumerate() {
                loop_witness[ti] = !q.distinct && q.inner.eval(t);
                if t.quant[qi] {
                    continue; // only a FALSE ∃≥n constrains neighbours
                }
                binds[ti] = true;
                // Partner types that avoid being a forced witness: pair-
                // compatible with ti yet refuting ψ.
                let row = avoid.row_mut(ti);
                row.copy_from_slice(match q.orient {
                    Orientation::Fwd => fwd[ri].row(ti),
                    Orientation::Bwd => bwd[ri].row(ti),
                });
                bitset::and_assign(row, &inner_false);
            }
            counting.push(CountingKernel {
                count: q.count as usize,
                subs,
                binds,
                avoid,
                loop_witness,
            });
        }
        let compat_bits = fwd.iter().map(BitMatrix::count_ones).sum::<usize>()
            + loop_ok.iter().map(|r| bitset::count_ones(r)).sum::<usize>();
        TypeKernel {
            words,
            full: bitset::full_row(n),
            fwd,
            bwd,
            loop_ok,
            unary_ok,
            counting,
            compat_bits,
            build_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Per-instance type assignment by bit-parallel AC-3 propagation.
    ///
    /// The computation is the paper's Theorem-5 one — identical in its
    /// result to [`ElementTypeSystem::instance_types_reference`] (the
    /// property tests assert exactly that) — but runs on the cached
    /// [`TypeKernel`]: elements are interned to dense ids, surviving
    /// sets are fixed-width bitset rows, an edge revision ORs the
    /// compat-matrix rows of the partner's surviving types and ANDs the
    /// union into the revisee's row, and a worklist of dirty arcs
    /// replaces full-sweep rounds. Counting/functionality caps are
    /// re-checked only for elements whose neighbourhood shrank.
    pub fn instance_types(&self, d: &Instance) -> InstanceTypes {
        let t0 = Instant::now();
        // Dense element index over the active domain (`dom()` is sorted,
        // so ids are deterministic).
        let mut terms = TermInterner::new();
        for t in d.dom() {
            terms.intern(t);
        }
        let facts = self.resolve(d, &mut terms);
        let mut counts = EvalStats::default();
        let run = self
            .propagate(&facts, &Budget::UNLIMITED, &mut counts)
            .expect("the unlimited budget cannot be exceeded");
        let mut surviving: BTreeMap<Term, BTreeSet<usize>> = BTreeMap::new();
        let mut inconsistent = false;
        for (e, t) in terms.iter().enumerate() {
            let row = run.row(e);
            inconsistent |= bitset::is_zero(row);
            surviving.insert(t, bitset::ones(row).collect());
        }
        let k = self.kernel();
        InstanceTypes {
            surviving,
            inconsistent,
            rounds: counts.rounds,
            stats: TypeStats {
                elements: terms.len(),
                edges: facts.edges.len() + facts.loops.len(),
                arcs_revised: run.arcs_revised,
                compat_bits: k.compat_bits,
                build_ns: k.build_ns,
                propagate_ns: t0.elapsed().as_nanos() as u64,
            },
        }
    }

    /// Answers the atomic query `query(x)` over a fact store with the
    /// bitset kernel, reproducing the goal of the Datalog≠ rewriting
    /// [`crate::emit::emit_datalog`] emits for it, answer for answer:
    ///
    /// * the domain is the rewriting's `_dom` — the terms of live facts
    ///   over the closure's unary and binary relations (not the whole
    ///   active domain, which [`ElementTypeSystem::certain_unary`] uses);
    /// * an inconsistent store (some element keeps no type) answers the
    ///   whole domain;
    /// * a query inside the closure holds where the element's surviving
    ///   types all make it true;
    /// * any other query answers its asserted unary facts (none for a
    ///   role name).
    ///
    /// The returned statistics count kernel rounds and, as `derived`,
    /// the facts the program would derive: eliminated (element, type)
    /// pairs plus domain plus answers (`_elim`, `_dom`, `_goal`).
    /// `budget` bounds both as [`gomq_datalog`]'s executor does — its
    /// deadline is also checked every 256 arc revisions — and a blown
    /// budget discards the work done so far.
    ///
    /// The goal is unary, so each answer is one term: they come back
    /// sorted, each once.
    pub fn answer(
        &self,
        d: &FactStore,
        query: RelId,
        budget: &Budget,
    ) -> Result<(Vec<Term>, EvalStats), BudgetExceeded> {
        let mut terms = TermInterner::new();
        let facts = self.resolve(d, &mut terms);
        let mut stats = EvalStats::default();
        let run = self.propagate(&facts, budget, &mut stats)?;
        let mut answers: Vec<Term> = Vec::new();
        let inconsistent = (0..terms.len()).any(|e| bitset::is_zero(run.row(e)));
        if inconsistent {
            answers.extend(terms.iter());
        }
        match self.unary_rels.iter().position(|&r| r == query) {
            Some(_) if inconsistent => {}
            Some(ui) => {
                let k = self.kernel();
                let refuters: Vec<u64> = k
                    .full
                    .iter()
                    .zip(&k.unary_ok[ui])
                    .map(|(f, u)| f & !u)
                    .collect();
                for (e, t) in terms.iter().enumerate() {
                    if !bitset::intersects(run.row(e), &refuters) {
                        answers.push(t);
                    }
                }
            }
            None => d.each_fact(query, |args| {
                if let [t] = args {
                    answers.push(*t);
                }
            }),
        }
        // Elements are numbered in first-occurrence order; answers go
        // out in term order, each once.
        answers.sort_unstable();
        answers.dedup();
        stats.derived += answers.len();
        // Rounds and the deadline are checked before each round only, as
        // the executor does; the goal facts still count as derived.
        Budget {
            max_derived: budget.max_derived,
            ..Budget::UNLIMITED
        }
        .check(&stats)?;
        Ok((answers, stats))
    }

    /// The facts of `d` over the closure's relations with their terms
    /// interned into `terms`, in one pass: one hash per term occurrence.
    /// Unary relations come first, then binary ones, each in fact order,
    /// so a term's id is its first occurrence in that order (after the
    /// terms `terms` already holds).
    fn resolve(&self, d: &impl FactSource, terms: &mut TermInterner) -> ClosureFacts {
        let mut facts = ClosureFacts::default();
        for (ui, &u) in self.unary_rels.iter().enumerate() {
            d.each_fact(u, |args| {
                if let [t] = args {
                    facts.unary.push((ui as u32, terms.intern(*t)));
                }
            });
        }
        for (ri, &r) in self.binary_rels.iter().enumerate() {
            d.each_fact(r, |args| {
                let [a, b] = args else { return };
                let (u, w) = (terms.intern(*a), terms.intern(*b));
                if u == w {
                    facts.loops.push((ri as u32, u));
                } else {
                    facts.edges.push((ri as u32, u, w));
                }
            });
        }
        facts.elements = terms.len();
        facts
    }

    /// The AC-3 core behind [`ElementTypeSystem::instance_types`] and
    /// [`ElementTypeSystem::answer`]: the greatest arc-consistent type
    /// assignment to the elements `0..facts.elements` under the
    /// resolved closure facts (elements no fact names keep all of `T*`).
    ///
    /// Each round counts into `stats.rounds`, passes the
    /// [`EVAL_ROUND`](gomq_core::faults::EVAL_ROUND) fault seam and
    /// first checks `budget` against the elements plus the eliminated
    /// (element, type) pairs so far, kept in `stats.derived`; the
    /// deadline is also checked every 256 arc revisions.
    fn propagate(
        &self,
        facts: &ClosureFacts,
        budget: &Budget,
        stats: &mut EvalStats,
    ) -> Result<Propagation, BudgetExceeded> {
        let k = self.kernel();
        let words = k.words;
        let n_elem = facts.elements;
        let pairs = n_elem * self.types.len();
        let deadline = Budget {
            deadline: budget.deadline,
            ..Budget::UNLIMITED
        };
        // Surviving rows: all of T*, minus the types contradicting an
        // asserted unary fact, minus the types incompatible with a
        // self-loop.
        let mut surv: Vec<u64> = Vec::with_capacity(n_elem * words);
        for _ in 0..n_elem {
            surv.extend_from_slice(&k.full);
        }
        for &(ui, e) in &facts.unary {
            let e = e as usize;
            bitset::and_assign(
                &mut surv[e * words..(e + 1) * words],
                &k.unary_ok[ui as usize],
            );
        }
        let nrels = self.binary_rels.len();
        let has_counting = !k.counting.is_empty();
        // Self-loops per relation and element, for the counting pass.
        let mut has_loop = vec![vec![false; if has_counting { n_elem } else { 0 }]; nrels];
        for &(ri, e) in &facts.loops {
            let (ri, e) = (ri as usize, e as usize);
            if has_counting {
                has_loop[ri][e] = true;
            }
            bitset::and_assign(&mut surv[e * words..(e + 1) * words], &k.loop_ok[ri]);
        }
        let edges = &facts.edges;
        // Distinct-neighbour CSR adjacency for the counting pass (facts
        // are deduplicated, so so are the lists).
        let (out_adj, in_adj) = if has_counting {
            let mut out = Vec::with_capacity(nrels);
            let mut inn = Vec::with_capacity(nrels);
            for ri in 0..nrels {
                let ri = ri as u32;
                out.push(Csr::from_pairs(
                    n_elem,
                    edges.iter().filter(|e| e.0 == ri).map(|&(_, u, w)| (u, w)),
                ));
                inn.push(Csr::from_pairs(
                    n_elem,
                    edges.iter().filter(|e| e.0 == ri).map(|&(_, u, w)| (w, u)),
                ));
            }
            (out, inn)
        } else {
            (Vec::new(), Vec::new())
        };
        // Arcs: each proper edge yields one revision of its source
        // (partner = target, supports via the transpose matrix) and one
        // of its target (partner = source, supports via the forward
        // matrix). `arcs_of_partner` maps an element to the arcs that
        // must be re-revised when its surviving set shrinks.
        let mut arcs: Vec<(u32, u32, u32, bool)> = Vec::with_capacity(edges.len() * 2);
        for &(ri, u, w) in edges {
            arcs.push((u, w, ri, true));
            arcs.push((w, u, ri, false));
        }
        let arcs_of_partner = Csr::from_pairs(
            n_elem,
            arcs.iter()
                .enumerate()
                .map(|(ai, &(_, p, _, _))| (p, ai as u32)),
        );
        let mut queue: VecDeque<u32> = (0..arcs.len() as u32).collect();
        let mut in_queue = vec![true; arcs.len()];
        // Worklist invariant: every arc whose revision might still
        // remove a bit is in the queue. Seeded with all arcs; an arc is
        // re-enqueued exactly when its partner's row shrinks.
        let mut shrunk = vec![true; n_elem]; // everyone dirty for the first counting pass
        let mut allowed = vec![0u64; words];
        let mut snapshot = vec![0u64; words];
        let mut nbrs: Vec<u32> = Vec::new();
        let mut arcs_revised = 0usize;
        loop {
            stats.derived = n_elem + pairs - bitset::count_ones(&surv);
            budget.check(stats)?;
            gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
            stats.rounds += 1;
            while let Some(ai) = queue.pop_front() {
                in_queue[ai as usize] = false;
                arcs_revised += 1;
                if arcs_revised.is_multiple_of(256) {
                    deadline.check(stats)?;
                }
                let (rv, p, ri, rv_is_src) = arcs[ai as usize];
                let (rv, p, ri) = (rv as usize, p as usize, ri as usize);
                allowed.fill(0);
                {
                    let prow = &surv[p * words..(p + 1) * words];
                    // Union of supports: a type survives at the revisee
                    // iff some surviving partner type is edge-compatible.
                    let m = if rv_is_src { &k.bwd[ri] } else { &k.fwd[ri] };
                    for tj in bitset::ones(prow) {
                        bitset::or_assign(&mut allowed, m.row(tj));
                    }
                }
                if bitset::and_assign(&mut surv[rv * words..(rv + 1) * words], &allowed) {
                    shrunk[rv] = true;
                    for &a2 in arcs_of_partner.row(rv) {
                        if !in_queue[a2 as usize] {
                            in_queue[a2 as usize] = true;
                            queue.push_back(a2);
                        }
                    }
                }
            }
            if !has_counting {
                break;
            }
            // Counting pass, restricted to dirty elements: those whose
            // own row shrank or with a shrunk proper neighbour (arcs
            // enumerate exactly the proper-edge neighbour pairs).
            let mut dirty = shrunk.clone();
            for &(rv, p, _, _) in &arcs {
                if shrunk[p as usize] {
                    dirty[rv as usize] = true;
                }
            }
            shrunk.iter_mut().for_each(|s| *s = false);
            let mut progressed = false;
            for a in 0..n_elem {
                if !dirty[a] {
                    continue;
                }
                for ck in &k.counting {
                    nbrs.clear();
                    let mut loop_here = false;
                    for &(ri, use_out) in &ck.subs {
                        let csr = if use_out { &out_adj[ri] } else { &in_adj[ri] };
                        nbrs.extend_from_slice(csr.row(a));
                        loop_here |= has_loop[ri][a];
                    }
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    if nbrs.len() + usize::from(loop_here) < ck.count {
                        continue; // not enough potential witnesses
                    }
                    snapshot.copy_from_slice(&surv[a * words..(a + 1) * words]);
                    let mut killed = false;
                    for ti in bitset::ones(&snapshot) {
                        if !ck.binds[ti] {
                            continue;
                        }
                        let avoid = ck.avoid.row(ti);
                        let mut forced = 0usize;
                        for &b in &nbrs {
                            let b = b as usize;
                            if !bitset::intersects(&surv[b * words..(b + 1) * words], avoid) {
                                forced += 1;
                            }
                        }
                        if loop_here && ck.loop_witness[ti] {
                            forced += 1;
                        }
                        if forced >= ck.count {
                            bitset::clear_bit(&mut surv[a * words..(a + 1) * words], ti);
                            killed = true;
                        }
                    }
                    if killed {
                        progressed = true;
                        shrunk[a] = true;
                        for &a2 in arcs_of_partner.row(a) {
                            if !in_queue[a2 as usize] {
                                in_queue[a2 as usize] = true;
                                queue.push_back(a2);
                            }
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        stats.derived = n_elem + pairs - bitset::count_ones(&surv);
        Ok(Propagation {
            words,
            surv,
            arcs_revised,
        })
    }

    /// Per-instance type assignment by arc-consistency propagation —
    /// the retained reference implementation (full Gauss–Seidel sweeps
    /// over `BTreeSet` surviving sets, one `compat_edge` call per type
    /// pair per edge per round). The bitset kernel is checked against it
    /// property-test-wise and benchmarked against it in `e13_types`.
    pub fn instance_types_reference(&self, d: &Instance) -> InstanceTypes {
        let mut surviving: BTreeMap<Term, BTreeSet<usize>> = BTreeMap::new();
        for a in d.dom() {
            // Initial: types consistent with the unary facts at a.
            let mut set = BTreeSet::new();
            'ty: for (ti, t) in self.types.iter().enumerate() {
                for (ui, &u) in self.unary_rels.iter().enumerate() {
                    let asserted = d.facts_of(u).any(|f| f.args.len() == 1 && f.args[0] == a);
                    if asserted && !t.unary[ui] {
                        continue 'ty;
                    }
                }
                set.insert(ti);
            }
            surviving.insert(a, set);
        }
        // Collect edges per binary relation, separating self-loops: a loop
        // constrains a type against *itself* (one element has one type),
        // while a proper edge is an arc-consistency constraint between two
        // type sets.
        let mut edges: Vec<(RelId, Term, Term)> = Vec::new();
        for &r in &self.binary_rels {
            for f in d.facts_of(r) {
                if f.args.len() != 2 {
                    continue;
                }
                if f.args[0] == f.args[1] {
                    let set = surviving.get_mut(&f.args[0]).expect("element exists");
                    set.retain(|&ti| self.compat_self_loop(&self.types[ti], r));
                } else {
                    edges.push((r, f.args[0], f.args[1]));
                }
            }
        }
        // Adjacency for the counting pass: distinct out-/in-neighbours and
        // self-loop presence, per relation.
        let mut out_nbrs: BTreeMap<(RelId, Term), BTreeSet<Term>> = BTreeMap::new();
        let mut in_nbrs: BTreeMap<(RelId, Term), BTreeSet<Term>> = BTreeMap::new();
        let mut has_loop: BTreeSet<(RelId, Term)> = BTreeSet::new();
        for &r in &self.binary_rels {
            for f in d.facts_of(r) {
                if f.args.len() != 2 {
                    continue;
                }
                if f.args[0] == f.args[1] {
                    has_loop.insert((r, f.args[0]));
                } else {
                    out_nbrs
                        .entry((r, f.args[0]))
                        .or_default()
                        .insert(f.args[1]);
                    in_nbrs.entry((r, f.args[1])).or_default().insert(f.args[0]);
                }
            }
        }
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let mut changed = false;
            for &(r, a, b) in &edges {
                // Forward: t at a needs a compatible partner at b.
                let partners_b = surviving[&b].clone();
                let set_a = surviving.get_mut(&a).expect("element exists");
                let before = set_a.len();
                set_a.retain(|&ti| {
                    partners_b
                        .iter()
                        .any(|&tj| self.compat_edge(&self.types[ti], &self.types[tj], r))
                });
                changed |= set_a.len() != before;
                // Backward: t at b needs a compatible partner at a.
                let partners_a = surviving[&a].clone();
                let set_b = surviving.get_mut(&b).expect("element exists");
                let before = set_b.len();
                set_b.retain(|&tj| {
                    partners_a
                        .iter()
                        .any(|&ti| self.compat_edge(&self.types[ti], &self.types[tj], r))
                });
                changed |= set_b.len() != before;
            }
            // Counting pass: a type with a FALSE `∃≥n` dies once `n`
            // witnesses are forced — n distinct neighbours none of which
            // can avoid ψ, plus (non-distinct quantifiers) a self-loop
            // when ψ holds in the type itself.
            for (qi, q) in self.quants.iter().enumerate() {
                if q.kind != QuantKind::Exists || q.count < 2 {
                    continue;
                }
                let elements: Vec<Term> = surviving.keys().copied().collect();
                let subs = self.sub_rels(q.rel);
                for a in elements {
                    // Neighbours through every sub-role of the counted
                    // relation, with the appropriate orientation.
                    let mut nbr_set: BTreeSet<Term> = BTreeSet::new();
                    let mut loop_here = false;
                    for &(r2, flipped) in &subs {
                        let forward = (q.orient == Orientation::Fwd) != flipped;
                        let source = if forward { &out_nbrs } else { &in_nbrs };
                        if let Some(set) = source.get(&(r2, a)) {
                            nbr_set.extend(set.iter().copied());
                        }
                        loop_here |= has_loop.contains(&(r2, a));
                    }
                    let nbrs: Vec<Term> = nbr_set.into_iter().collect();
                    if nbrs.len() + usize::from(loop_here) < q.count as usize {
                        continue; // not enough potential witnesses
                    }
                    let snapshot = surviving[&a].clone();
                    let mut to_kill: Vec<usize> = Vec::new();
                    for &ti in &snapshot {
                        let t = &self.types[ti];
                        if t.quant[qi] {
                            continue;
                        }
                        let mut forced = 0usize;
                        for b in &nbrs {
                            let can_avoid = surviving[b].iter().any(|&tj| {
                                let w = &self.types[tj];
                                let pair_ok = match q.orient {
                                    Orientation::Fwd => self.compat(t, w, q.rel, false),
                                    Orientation::Bwd => self.compat(w, t, q.rel, false),
                                };
                                pair_ok && !q.inner.eval(w)
                            });
                            if !can_avoid {
                                forced += 1;
                            }
                        }
                        if loop_here && !q.distinct && q.inner.eval(t) {
                            forced += 1;
                        }
                        if forced >= q.count as usize {
                            to_kill.push(ti);
                        }
                    }
                    if !to_kill.is_empty() {
                        let set = surviving.get_mut(&a).expect("element exists");
                        for ti in to_kill {
                            set.remove(&ti);
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let inconsistent = surviving.values().any(|s| s.is_empty());
        InstanceTypes {
            surviving,
            inconsistent,
            rounds,
            stats: TypeStats::default(),
        }
    }

    /// Certain answers to the atomic query `A(x)`: the elements all of
    /// whose surviving types make `A` true — or every element when the
    /// instance is inconsistent. A relation outside the ontology's
    /// closure is unconstrained, so its certain answers are exactly the
    /// facts asserted in `D`. Runs the bitset kernel.
    ///
    /// The domain is all of `D.dom()`, the model-theoretic reading the
    /// countermodel engine shares; [`ElementTypeSystem::answer`] keeps
    /// the rewriting's narrower `_dom` instead (DESIGN.md §7).
    pub fn certain_unary(&self, d: &Instance, rel: RelId) -> BTreeSet<Term> {
        let it = self.instance_types(d);
        self.certain_from(&it, d, rel)
    }

    /// [`ElementTypeSystem::certain_unary`] through the reference
    /// propagation — retained for equivalence testing.
    pub fn certain_unary_reference(&self, d: &Instance, rel: RelId) -> BTreeSet<Term> {
        let it = self.instance_types_reference(d);
        self.certain_from(&it, d, rel)
    }

    fn certain_from(&self, it: &InstanceTypes, d: &Instance, rel: RelId) -> BTreeSet<Term> {
        if it.inconsistent {
            return d.dom();
        }
        let Some(ui) = self.unary_rels.iter().position(|&r| r == rel) else {
            return d
                .facts_of(rel)
                .filter(|f| f.args.len() == 1)
                .map(|f| f.args[0])
                .collect();
        };
        it.surviving
            .iter()
            .filter(|(_, set)| !set.is_empty() && set.iter().all(|&ti| self.types[ti].unary[ui]))
            .map(|(&t, _)| t)
            .collect()
    }
}

/// The compiled bit-parallel AC-3 kernel of an [`ElementTypeSystem`].
///
/// Everything instance-independent about Theorem-5 propagation lives
/// here, computed once per ontology *after* global elimination (the
/// matrices quantify over the final `T*`; see DESIGN.md §7 for why that
/// ordering is load-bearing):
///
/// * per binary relation, a forward compatibility matrix (row `ti` =
///   the types compatible as `R`-successors of `ti`) and its transpose,
/// * per relation, the self-loop-compatible types as one row,
/// * per unary closure bit, the types asserting it,
/// * per counting constraint (`∃≥n`, n ≥ 2, incl. compiled
///   functionality), the "avoider" rows and loop-witness flags.
#[derive(Clone, Debug)]
pub struct TypeKernel {
    /// Word width of a type-set row.
    words: usize,
    /// All of `T*` as a row (trailing bits clear).
    full: Vec<u64>,
    /// Forward compat: `fwd[r].row(ti) = {tj : compat_edge(ti, tj, r)}`.
    pub(crate) fwd: Vec<BitMatrix>,
    /// Transpose: `bwd[r].row(tj) = {ti : compat_edge(ti, tj, r)}`.
    pub(crate) bwd: Vec<BitMatrix>,
    /// Self-loop survivors per relation.
    pub(crate) loop_ok: Vec<Vec<u64>>,
    /// Types asserting each unary closure bit.
    unary_ok: Vec<Vec<u64>>,
    /// Compiled counting constraints.
    counting: Vec<CountingKernel>,
    /// Total set bits across `fwd` and `loop_ok`.
    compat_bits: usize,
    /// Construction wall time.
    build_ns: u64,
}

impl TypeKernel {
    /// Total set bits across the compatibility matrices and loop masks.
    pub fn compat_bits(&self) -> usize {
        self.compat_bits
    }

    /// Wall time spent building the kernel, in nanoseconds.
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }
}

/// One compiled `∃≥n` (n ≥ 2) constraint of the counting pass.
#[derive(Clone, Debug)]
struct CountingKernel {
    /// The threshold `n`.
    count: usize,
    /// Sub-roles of the counted relation as `(dense relation index,
    /// count out-neighbours?)` — orientation and hierarchy flips are
    /// resolved at compile time.
    subs: Vec<(usize, bool)>,
    /// Which types the constraint binds (the `∃≥n` is FALSE there).
    binds: Vec<bool>,
    /// Row `ti` = partner types that avoid being a forced witness of
    /// `ti`: pair-compatible yet refuting the filler ψ.
    avoid: BitMatrix,
    /// Whether a self-loop contributes a forced witness for type `ti`.
    loop_witness: Vec<bool>,
}

/// Where the propagation core reads an instance's facts from.
trait FactSource {
    /// Calls `f` with the argument slice of every (live) fact of `rel`.
    fn each_fact(&self, rel: RelId, f: impl FnMut(&[Term]));
}

impl FactSource for Instance {
    fn each_fact(&self, rel: RelId, mut f: impl FnMut(&[Term])) {
        for fact in self.facts_of(rel) {
            f(fact.args);
        }
    }
}

impl FactSource for FactStore {
    fn each_fact(&self, rel: RelId, mut f: impl FnMut(&[Term])) {
        for &id in self.rel_ids(rel) {
            if self.is_live(id) {
                f(self.args(FactId(id)));
            }
        }
    }
}

/// The facts of one instance over a closure's relations, their terms
/// resolved to dense element ids by [`ElementTypeSystem::resolve`].
#[derive(Default)]
struct ClosureFacts {
    /// Number of elements: every id below it is in use.
    elements: usize,
    /// `(unary relation index, element)` per unary fact.
    unary: Vec<(u32, u32)>,
    /// `(binary relation index, element)` per self-loop `R(a, a)`.
    loops: Vec<(u32, u32)>,
    /// `(binary relation index, source, target)` per proper edge.
    edges: Vec<(u32, u32, u32)>,
}

/// The fixpoint of one propagation run: one surviving-type row per
/// interned element.
struct Propagation {
    words: usize,
    surv: Vec<u64>,
    /// AC-3 arc revisions performed.
    arcs_revised: usize,
}

impl Propagation {
    fn row(&self, e: usize) -> &[u64] {
        &self.surv[e * self.words..(e + 1) * self.words]
    }
}

/// Compressed-sparse-row adjacency: `row(i)` of element `i` in O(1).
struct Csr {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl Csr {
    /// Builds from `(source, value)` pairs by counting sort; `n` is the
    /// number of sources.
    fn from_pairs(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for (s, _) in pairs.clone() {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; offsets[n] as usize];
        for (s, v) in pairs {
            data[cursor[s as usize] as usize] = v;
            cursor[s as usize] += 1;
        }
        Csr { offsets, data }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Detects a role-inclusion sentence `∀xy(R°(x,y) → S°(x,y))`, in either
/// the equality-guarded one-variable form produced by the DL translation
/// or the plain two-variable guarded form. Returns `(sub, sup, flipped)`.
fn detect_role_inclusion(s: &gomq_logic::UgfSentence) -> Option<(RelId, RelId, bool)> {
    fn orientation(args: &[LVar], x: LVar, y: LVar) -> Option<bool> {
        // true = (x, y), false = (y, x).
        if args == [x, y] {
            Some(true)
        } else if args == [y, x] {
            Some(false)
        } else {
            None
        }
    }
    match s.qvars.as_slice() {
        [x] => {
            if !matches!(&s.guard, Guard::Eq(a, b) if a == b) {
                return None;
            }
            let Formula::Forall { qvars, guard, body } = &s.body else {
                return None;
            };
            let [y] = qvars.as_slice() else { return None };
            let Guard::Atom { rel: sub, args } = guard else {
                return None;
            };
            let Formula::Atom {
                rel: sup,
                args: args2,
            } = &**body
            else {
                return None;
            };
            let o1 = orientation(args, *x, *y)?;
            let o2 = orientation(args2, *x, *y)?;
            Some((*sub, *sup, o1 != o2))
        }
        [x, y] => {
            let Guard::Atom { rel: sub, args } = &s.guard else {
                return None;
            };
            let Formula::Atom {
                rel: sup,
                args: args2,
            } = &s.body
            else {
                return None;
            };
            let o1 = orientation(args, *x, *y)?;
            let o2 = orientation(args2, *x, *y)?;
            Some((*sub, *sup, o1 != o2))
        }
        _ => None,
    }
}

fn binary_rels_of(quants: &[QuantSub], sig: &BTreeSet<RelId>, vocab: &Vocab) -> Vec<RelId> {
    let mut out: BTreeSet<RelId> = quants.iter().map(|q| q.rel).collect();
    for &r in sig {
        if vocab.arity(r) == 2 {
            out.insert(r);
        }
    }
    out.into_iter().collect()
}

struct Builder {
    unary_rels: Vec<RelId>,
    quants: Vec<QuantSub>,
}

impl Builder {
    fn unary_index(&mut self, rel: RelId) -> usize {
        match self.unary_rels.iter().position(|&r| r == rel) {
            Some(i) => i,
            None => {
                self.unary_rels.push(rel);
                self.unary_rels.len() - 1
            }
        }
    }

    /// Compiles an outer body `φ(x)`.
    fn compile_outer(&mut self, f: &Formula, x: LVar) -> Result<LocalExpr, RewriteError> {
        match f {
            Formula::True => Ok(LocalExpr::True),
            Formula::False => Ok(LocalExpr::False),
            Formula::Atom { rel, args } => {
                if args.as_slice() == [x] {
                    Ok(LocalExpr::Unary(self.unary_index(*rel)))
                } else {
                    Err(RewriteError("non-unary atom at outer level".into()))
                }
            }
            Formula::Eq(_, _) => Err(RewriteError("equality in body".into())),
            Formula::Not(g) => Ok(LocalExpr::Not(Box::new(self.compile_outer(g, x)?))),
            Formula::And(fs) => Ok(LocalExpr::And(
                fs.iter()
                    .map(|g| self.compile_outer(g, x))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Or(fs) => Ok(LocalExpr::Or(
                fs.iter()
                    .map(|g| self.compile_outer(g, x))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Exists { qvars, guard, body } => {
                self.compile_quant(QuantKind::Exists, 1, qvars, guard, body, x)
            }
            Formula::Forall { qvars, guard, body } => {
                self.compile_quant(QuantKind::Forall, 1, qvars, guard, body, x)
            }
            Formula::CountExists {
                n,
                qvar,
                guard,
                body,
            } => {
                if *n == 0 {
                    return Ok(LocalExpr::True);
                }
                self.compile_quant(QuantKind::Exists, *n, &[*qvar], guard, body, x)
            }
        }
    }

    fn compile_quant(
        &mut self,
        kind: QuantKind,
        count: u32,
        qvars: &[LVar],
        guard: &Guard,
        body: &Formula,
        x: LVar,
    ) -> Result<LocalExpr, RewriteError> {
        let [y] = qvars else {
            return Err(RewriteError("multi-variable inner quantifier".into()));
        };
        let Guard::Atom { rel, args } = guard else {
            return Err(RewriteError("equality guard in body".into()));
        };
        let orient = if args.as_slice() == [x, *y] {
            Orientation::Fwd
        } else if args.as_slice() == [*y, x] {
            Orientation::Bwd
        } else {
            return Err(RewriteError("inner guard must be R(x,y) or R(y,x)".into()));
        };
        // Distinctness extraction: ∃y(α ∧ x≠y ∧ ψ) and ∀y(α → x=y ∨ ψ).
        let is_neq = |f: &Formula| {
            matches!(f, Formula::Not(e)
                if matches!(**e, Formula::Eq(a, b) if (a == x && b == *y) || (a == *y && b == x)))
        };
        let is_eq = |f: &Formula| matches!(f, Formula::Eq(a, b) if (*a == x && b == y) || (a == y && *b == x));
        let (distinct, residual): (bool, Formula) = match (kind, body) {
            (QuantKind::Exists, Formula::And(parts)) if parts.iter().any(is_neq) => {
                let rest: Vec<Formula> = parts.iter().filter(|p| !is_neq(p)).cloned().collect();
                (true, Formula::And(rest))
            }
            (QuantKind::Exists, f) if is_neq(f) => (true, Formula::True),
            (QuantKind::Forall, Formula::Or(parts)) if parts.iter().any(is_eq) => {
                let rest: Vec<Formula> = parts.iter().filter(|p| !is_eq(p)).cloned().collect();
                (true, Formula::Or(rest))
            }
            (QuantKind::Forall, Formula::Eq(a, b))
                if (*a == x && b == y) || (a == y && *b == x) =>
            {
                (true, Formula::False)
            }
            (_, f) => (false, f.clone()),
        };
        let inner = self.compile_inner(&residual, *y)?;
        let sub = QuantSub {
            kind,
            orient,
            rel: *rel,
            distinct,
            count,
            inner,
        };
        Ok(LocalExpr::Quant(self.intern_quant(sub)))
    }

    fn intern_quant(&mut self, sub: QuantSub) -> usize {
        match self.quants.iter().position(|q| *q == sub) {
            Some(i) => i,
            None => {
                self.quants.push(sub);
                self.quants.len() - 1
            }
        }
    }

    /// Compiles an inner formula `ψ(y)`: boolean combination of unary
    /// atoms over `y`.
    fn compile_inner(&mut self, f: &Formula, y: LVar) -> Result<LocalExpr, RewriteError> {
        match f {
            Formula::True => Ok(LocalExpr::True),
            Formula::False => Ok(LocalExpr::False),
            Formula::Atom { rel, args } => {
                if args.as_slice() == [y] {
                    Ok(LocalExpr::Unary(self.unary_index(*rel)))
                } else {
                    Err(RewriteError(
                        "inner formula mentions the outer variable".into(),
                    ))
                }
            }
            Formula::Not(g) => Ok(LocalExpr::Not(Box::new(self.compile_inner(g, y)?))),
            Formula::And(fs) => Ok(LocalExpr::And(
                fs.iter()
                    .map(|g| self.compile_inner(g, y))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Or(fs) => Ok(LocalExpr::Or(
                fs.iter()
                    .map(|g| self.compile_inner(g, y))
                    .collect::<Result<_, _>>()?,
            )),
            _ => Err(RewriteError("nested quantifier (depth ≥ 2)".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::Fact;
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    use gomq_logic::UgfSentence;

    /// A ⊑ ∃R.B, B ⊑ C.
    fn simple(v: &mut Vocab) -> GfOntology {
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let c = v.rel("C", 1);
        let r = Role::new(v.rel("R", 2));
        let mut o = DlOntology::new();
        o.sub(
            Concept::Name(a),
            Concept::Exists(r, Box::new(Concept::Name(b))),
        );
        o.sub(Concept::Name(b), Concept::Name(c));
        to_gf(&o)
    }

    #[test]
    fn build_and_count_types() {
        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        assert!(sys.num_types() > 0);
        assert!(sys.closure_bits() <= 5);
    }

    #[test]
    fn certain_unary_subsumption() {
        // D = {A(a), R(a,b), B(b)}: C is certain at b (B ⊑ C); not at a.
        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let c_rel = v.rel("C", 1);
        let r = v.rel("R", 2);
        let ca = v.constant("a");
        let cb = v.constant("b");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(r, &[ca, cb]));
        d.insert(Fact::consts(b_rel, &[cb]));
        let certain_c = sys.certain_unary(&d, c_rel);
        assert!(certain_c.contains(&Term::Const(cb)));
        assert!(!certain_c.contains(&Term::Const(ca)));
        // A is certain exactly at a.
        let certain_a = sys.certain_unary(&d, a_rel);
        assert_eq!(certain_a.len(), 1);
    }

    #[test]
    fn answer_honours_the_budget() {
        // D = {A(a), R(a,b), B(b)}: one round, domain {a, b}, C at b.
        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let (a_rel, b_rel, c_rel, r) = (v.rel("A", 1), v.rel("B", 1), v.rel("C", 1), v.rel("R", 2));
        let (ca, cb) = (v.constant("a"), v.constant("b"));
        let mut d = FactStore::new();
        d.intern_fact(&Fact::consts(a_rel, &[ca]));
        d.intern_fact(&Fact::consts(r, &[ca, cb]));
        d.intern_fact(&Fact::consts(b_rel, &[cb]));
        let (answers, stats) = sys
            .answer(&d, c_rel, &Budget::UNLIMITED)
            .expect("unlimited");
        assert_eq!(answers, vec![Term::Const(cb)]);
        assert_eq!(stats.rounds, 1);
        // Derived = eliminated pairs + domain + answers.
        let surviving: usize = sys
            .instance_types(&Instance::from_store(d.clone()))
            .surviving
            .values()
            .map(BTreeSet::len)
            .sum();
        assert_eq!(stats.derived, 2 * sys.num_types() - surviving + 2 + 1);
        // As in the executor, a round starts while `rounds <= max_rounds`.
        let rounds = Budget {
            max_rounds: Some(0),
            ..Budget::UNLIMITED
        };
        assert_eq!(
            sys.answer(&d, c_rel, &rounds).expect("one round allowed").0,
            answers
        );
        let derived = Budget {
            max_derived: Some(stats.derived - 1),
            ..Budget::UNLIMITED
        };
        let err = sys.answer(&d, c_rel, &derived).unwrap_err();
        assert_eq!(err.limit, gomq_datalog::LimitKind::Derived);
        assert_eq!(err.derived, stats.derived);
    }

    #[test]
    fn propagation_along_forall() {
        // ⊤ ⊑ ∀R.B encoded as ALC: ∀x ∀y(R(x,y) → B(y)).
        let mut v = Vocab::new();
        let b_rel = v.rel("B", 1);
        let r = Role::new(v.rel("R", 2));
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Top,
            Concept::Forall(r, Box::new(Concept::Name(b_rel))),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let rr = v.rel("R", 2);
        let ca = v.constant("a");
        let cb = v.constant("b");
        let mut d = Instance::new();
        d.insert(Fact::consts(rr, &[ca, cb]));
        let certain_b = sys.certain_unary(&d, b_rel);
        assert!(certain_b.contains(&Term::Const(cb)));
        assert!(!certain_b.contains(&Term::Const(ca)));
    }

    #[test]
    fn inconsistency_detected() {
        // A ⊑ B, A ⊑ ¬B, D = {A(a)}: inconsistent → everything certain.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let mut dl = DlOntology::new();
        dl.sub(Concept::Name(a_rel), Concept::Name(b_rel));
        dl.sub(Concept::Name(a_rel), Concept::Name(b_rel).neg());
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let ca = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        let it = sys.instance_types(&d);
        assert!(it.inconsistent);
        assert_eq!(sys.certain_unary(&d, b_rel).len(), 1);
    }

    #[test]
    fn counting_exactly_n_is_supported() {
        // O₁-style: Hand ⊑ (= 2 hasFinger ⊤) — uGC⁻₂(1,=).
        let mut v = Vocab::new();
        let hand = v.rel("Hand", 1);
        let hf_rel = v.rel("hasFinger", 2);
        let hf = Role::new(hf_rel);
        let mut dl = DlOntology::new();
        dl.sub(Concept::Name(hand), Concept::exactly(2, hf, Concept::Top));
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("counting supported");
        assert!(sys.uses_counting());
        let h = v.constant("h");
        let fingers: Vec<_> = (0..3).map(|i| v.constant(&format!("fg{i}"))).collect();
        // Two explicit fingers: consistent.
        let mut d2 = Instance::new();
        d2.insert(Fact::consts(hand, &[h]));
        for &f in &fingers[..2] {
            d2.insert(Fact::consts(hf_rel, &[h, f]));
        }
        assert!(!sys.instance_types(&d2).inconsistent);
        // Three explicit fingers exceed (≤ 2): inconsistent.
        let mut d3 = Instance::new();
        d3.insert(Fact::consts(hand, &[h]));
        for &f in &fingers {
            d3.insert(Fact::consts(hf_rel, &[h, f]));
        }
        assert!(sys.instance_types(&d3).inconsistent);
        // Cross-check both with the model-theoretic engine.
        let engine = gomq_reasoning::CertainEngine::new(2);
        assert!(engine.consistency(&o, &d2, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &d3, &mut v).is_consistent());
    }

    #[test]
    fn functionality_compiles_as_counting() {
        // func(F): two distinct F-successors are inconsistent; a loop plus
        // a proper successor also counts as two.
        let mut v = Vocab::new();
        let f_rel = v.rel("F", 2);
        let mut o = GfOntology::new();
        o.declare_functional(f_rel);
        let sys = ElementTypeSystem::build(&o, &v).expect("functionality supported");
        assert!(sys.uses_counting());
        let a = v.constant("fa");
        let b = v.constant("fb");
        let c = v.constant("fc");
        let mut ok = Instance::new();
        ok.insert(Fact::consts(f_rel, &[a, b]));
        assert!(!sys.instance_types(&ok).inconsistent);
        let mut bad = ok.clone();
        bad.insert(Fact::consts(f_rel, &[a, c]));
        assert!(sys.instance_types(&bad).inconsistent);
        let mut loopy = ok.clone();
        loopy.insert(Fact::consts(f_rel, &[a, a]));
        assert!(
            sys.instance_types(&loopy).inconsistent,
            "loop + proper edge = two successors"
        );
        // Engine agreement.
        let engine = gomq_reasoning::CertainEngine::new(1);
        assert!(engine.consistency(&o, &ok, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &bad, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &loopy, &mut v).is_consistent());
    }

    #[test]
    fn inverse_functionality_compiles_as_counting() {
        let mut v = Vocab::new();
        let f_rel = v.rel("F", 2);
        let mut o = GfOntology::new();
        o.declare_inverse_functional(f_rel);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let a = v.constant("ia");
        let b = v.constant("ib");
        let c = v.constant("ic");
        let mut bad = Instance::new();
        bad.insert(Fact::consts(f_rel, &[a, c]));
        bad.insert(Fact::consts(f_rel, &[b, c]));
        assert!(sys.instance_types(&bad).inconsistent);
        let mut ok = Instance::new();
        ok.insert(Fact::consts(f_rel, &[a, b]));
        ok.insert(Fact::consts(f_rel, &[a, c]));
        assert!(!sys.instance_types(&ok).inconsistent);
    }

    #[test]
    fn role_hierarchies_propagate_constraints() {
        // manages ⊑ worksOn, ⊤ ⊑ ∀worksOn.Project: a `manages` edge forces
        // Project at its target.
        let mut v = Vocab::new();
        let project = v.rel("Project", 1);
        let works = v.rel("worksOn", 2);
        let manages = v.rel("manages", 2);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Top,
            Concept::Forall(Role::new(works), Box::new(Concept::Name(project))),
        );
        dl.role_sub(Role::new(manages), Role::new(works));
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("hierarchies supported");
        let a = v.constant("boss");
        let p = v.constant("proj");
        let mut d = Instance::new();
        d.insert(Fact::consts(manages, &[a, p]));
        let certain = sys.certain_unary(&d, project);
        assert!(certain.contains(&Term::Const(p)));
        // Engine agreement.
        let engine = gomq_reasoning::CertainEngine::new(1);
        let mut b = gomq_core::query::CqBuilder::new();
        let x = b.var("x");
        b.atom(project, &[x]);
        let q = gomq_core::Ucq::from_cq(b.build(vec![x]));
        assert!(engine
            .certain(&o, &d, &q, &[Term::Const(p)], &mut v)
            .is_certain());
    }

    #[test]
    fn inverse_role_inclusion_flips_orientation() {
        // childOf ⊑ parentOf⁻ and ⊤ ⊑ ∀parentOf.Person: childOf(a,b)
        // means parentOf(b,a), so Person is forced at *a*.
        let mut v = Vocab::new();
        let person = v.rel("Person", 1);
        let parent_of = v.rel("parentOf", 2);
        let child_of = v.rel("childOf", 2);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Top,
            Concept::Forall(Role::new(parent_of), Box::new(Concept::Name(person))),
        );
        dl.role_sub(Role::new(child_of), Role::inv(parent_of));
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let a = v.constant("kid");
        let b = v.constant("mum");
        let mut d = Instance::new();
        d.insert(Fact::consts(child_of, &[a, b]));
        let certain = sys.certain_unary(&d, person);
        assert!(
            certain.contains(&Term::Const(a)),
            "childOf(a,b) ⇒ parentOf(b,a) ⇒ Person(a)"
        );
        assert!(!certain.contains(&Term::Const(b)));
    }

    #[test]
    fn hierarchy_counting_counts_subrole_edges() {
        // func(worksOn) with manages ⊑ worksOn: one `manages` edge plus a
        // distinct `worksOn` edge overflow the bound.
        let mut v = Vocab::new();
        let works = v.rel("worksOn", 2);
        let manages = v.rel("manages", 2);
        let mut dl = DlOntology::new();
        dl.functional(Role::new(works));
        dl.role_sub(Role::new(manages), Role::new(works));
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let a = v.constant("w0");
        let p1 = v.constant("w1");
        let p2 = v.constant("w2");
        let mut bad = Instance::new();
        bad.insert(Fact::consts(manages, &[a, p1]));
        bad.insert(Fact::consts(works, &[a, p2]));
        assert!(sys.instance_types(&bad).inconsistent);
        // The same target twice is fine (witness counting is per element).
        let mut ok = Instance::new();
        ok.insert(Fact::consts(manages, &[a, p1]));
        ok.insert(Fact::consts(works, &[a, p1]));
        assert!(!sys.instance_types(&ok).inconsistent);
        // Engine agreement requires translating func into the GF ontology,
        // which `to_gf` already did.
        let engine = gomq_reasoning::CertainEngine::new(1);
        assert!(!engine.consistency(&o, &bad, &mut v).is_consistent());
        assert!(engine.consistency(&o, &ok, &mut v).is_consistent());
    }

    #[test]
    fn counting_with_qualified_filler() {
        // A ⊑ ¬∃≥2 R.B — at most one R-successor in B.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r_rel = v.rel("R", 2);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a_rel),
            Concept::AtMost(1, Role::new(r_rel), Box::new(Concept::Name(b_rel))),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let ca = v.constant("qa");
        let c1 = v.constant("q1");
        let c2 = v.constant("q2");
        // Two B-successors: inconsistent.
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(r_rel, &[ca, c1]));
        d.insert(Fact::consts(r_rel, &[ca, c2]));
        d.insert(Fact::consts(b_rel, &[c1]));
        d.insert(Fact::consts(b_rel, &[c2]));
        assert!(sys.instance_types(&d).inconsistent);
        // Two successors, only one in B: fine.
        let mut d_ok = Instance::new();
        d_ok.insert(Fact::consts(a_rel, &[ca]));
        d_ok.insert(Fact::consts(r_rel, &[ca, c1]));
        d_ok.insert(Fact::consts(r_rel, &[ca, c2]));
        d_ok.insert(Fact::consts(b_rel, &[c1]));
        assert!(!sys.instance_types(&d_ok).inconsistent);
        // In the consistent case, ¬B is NOT derivable at c2 as a fact, but
        // B is not certain there either (the model may or may not add it)…
        // unless it would overflow: with (≤ 1 R B), a model adding B(c2)
        // violates the axiom, so ¬B is "certain" — i.e. B(c2) is not
        // certain and D + B(c2) is inconsistent.
        let mut d_forced = d_ok.clone();
        d_forced.insert(Fact::consts(b_rel, &[c2]));
        assert!(sys.instance_types(&d_forced).inconsistent);
        let engine = gomq_reasoning::CertainEngine::new(2);
        assert!(engine.consistency(&o, &d_ok, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &d_forced, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &d, &mut v).is_consistent());
    }

    #[test]
    fn global_elimination_removes_unwitnessable_types() {
        // A ⊑ ∃R.B and ⊤ ⊑ ¬B: no type can have the ∃-requirement.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = Role::new(v.rel("R", 2));
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a_rel),
            Concept::Exists(r, Box::new(Concept::Name(b_rel))),
        );
        dl.sub(Concept::Top, Concept::Name(b_rel).neg());
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        // No surviving type makes A true.
        let any_a = (0..sys.num_types()).any(|ti| sys.type_has_unary(ti, a_rel) == Some(true));
        assert!(!any_a);
        // Hence D = {A(a)} is inconsistent.
        let ca = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        assert!(sys.instance_types(&d).inconsistent);
    }

    #[test]
    fn inverse_roles_supported() {
        // A ⊑ ∃R⁻.B : element of A needs a B-predecessor.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = v.rel("R", 2);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a_rel),
            Concept::Exists(Role::inv(r), Box::new(Concept::Name(b_rel))),
        );
        // And ∀R⁻.C-style propagation: ⊤ ⊑ ∀R⁻.C means predecessors are C.
        let c_rel = v.rel("C", 1);
        dl.sub(
            Concept::Top,
            Concept::Forall(Role::inv(r), Box::new(Concept::Name(c_rel))),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let ca = v.constant("a");
        let cb = v.constant("b");
        let mut d = Instance::new();
        d.insert(Fact::consts(r, &[ca, cb]));
        // a is a predecessor of b, so C is certain at a.
        let certain_c = sys.certain_unary(&d, c_rel);
        assert!(certain_c.contains(&Term::Const(ca)));
    }

    #[test]
    fn loops_constrain_a_type_against_itself() {
        // A ⊑ ∀R.B with D = {A(a), R(a,a)}: the loop forces B(a). An
        // arc-consistency check that compares against *other* surviving
        // types would miss this.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = Role::new(v.rel("R", 2));
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a_rel),
            Concept::Forall(r, Box::new(Concept::Name(b_rel))),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let rr = v.rel("R", 2);
        let ca = v.constant("loopy");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(rr, &[ca, ca]));
        let certain_b = sys.certain_unary(&d, b_rel);
        assert!(
            certain_b.contains(&Term::Const(ca)),
            "the self-loop forces B at a"
        );
        // Cross-check with the model-theoretic engine.
        let engine = gomq_reasoning::CertainEngine::new(1);
        let mut bq = gomq_core::query::CqBuilder::new();
        let x = bq.var("x");
        bq.atom(b_rel, &[x]);
        let q = gomq_core::Ucq::from_cq(bq.build(vec![x]));
        assert!(engine
            .certain(&o, &d, &q, &[Term::Const(ca)], &mut v)
            .is_certain());
    }

    /// O = { ∀x(A(x) → ¬∃y(R(x,y) ∧ x ≠ y)) } — A-elements have no
    /// *distinct* R-successor (uGF⁻(1,=)).
    fn no_distinct_successor(v: &mut Vocab) -> GfOntology {
        let a_rel = v.rel("A", 1);
        let r = v.rel("R", 2);
        let (x, y) = (LVar(0), LVar(1));
        GfOntology::from_ugf(vec![UgfSentence::forall_one(
            x,
            Formula::implies(
                Formula::unary(a_rel, x),
                Formula::Not(Box::new(Formula::Exists {
                    qvars: vec![y],
                    guard: Guard::Atom {
                        rel: r,
                        args: vec![x, y],
                    },
                    body: Box::new(Formula::Not(Box::new(Formula::Eq(x, y)))),
                })),
            ),
            vec!["x".into(), "y".into()],
        )])
    }

    #[test]
    fn distinct_quantifiers_ignore_self_loops() {
        let mut v = Vocab::new();
        let o = no_distinct_successor(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("uGF⁻(1,=) supported");
        assert!(sys.uses_distinctness());
        let a_rel = v.rel("A", 1);
        let r = v.rel("R", 2);
        let ca = v.constant("s0");
        let cb = v.constant("s1");
        // A self-loop is fine…
        let mut d1 = Instance::new();
        d1.insert(Fact::consts(a_rel, &[ca]));
        d1.insert(Fact::consts(r, &[ca, ca]));
        assert!(!sys.instance_types(&d1).inconsistent);
        // …a proper edge is a contradiction.
        let mut d2 = Instance::new();
        d2.insert(Fact::consts(a_rel, &[ca]));
        d2.insert(Fact::consts(r, &[ca, cb]));
        assert!(sys.instance_types(&d2).inconsistent);
        // Cross-check both verdicts with the engine.
        let engine = gomq_reasoning::CertainEngine::new(1);
        assert!(engine.consistency(&o, &d1, &mut v).is_consistent());
        assert!(!engine.consistency(&o, &d2, &mut v).is_consistent());
    }

    #[test]
    fn handwritten_ugf_sentence_supported() {
        // ∀x(A(x) → ∃y(R(x,y) ∧ A(y))) — materializable Horn with infinite
        // chase; type elimination handles it finitely.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let r = v.rel("R", 2);
        let (x, y) = (LVar(0), LVar(1));
        let o = GfOntology::from_ugf(vec![UgfSentence::forall_one(
            x,
            Formula::implies(
                Formula::unary(a_rel, x),
                Formula::Exists {
                    qvars: vec![y],
                    guard: Guard::Atom {
                        rel: r,
                        args: vec![x, y],
                    },
                    body: Box::new(Formula::unary(a_rel, y)),
                },
            ),
            vec!["x".into(), "y".into()],
        )]);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let ca = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        assert!(!sys.instance_types(&d).inconsistent);
        assert_eq!(sys.certain_unary(&d, a_rel).len(), 1);
    }
}
