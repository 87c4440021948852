//! Per-ontology classification reports (the executable Figure 1).

use crate::types::ElementTypeSystem;
use gomq_core::{Instance, Ucq, Vocab};
use gomq_logic::fragment::{best_fragment, Fragment, FragmentFeatures, Zone};
use gomq_logic::GfOntology;
use gomq_reasoning::materialize::{atomic_candidates, find_disjunction_witness};
use gomq_reasoning::CertainEngine;
use std::fmt;

/// A classification report for an ontology.
#[derive(Clone, Debug)]
pub struct OntologyReport {
    /// Extracted syntactic features.
    pub features: FragmentFeatures,
    /// All containing Figure-1 fragments, tightest first.
    pub fragments: Vec<Fragment>,
    /// The zone verdict derived from Figure 1.
    pub zone: Zone,
    /// Whether the element-type rewriter supports the ontology (a
    /// sufficient condition for emitting a Datalog rewriting).
    pub type_rewritable: bool,
    /// Witness instances on which the disjunction property failed, if a
    /// probe was run and found one (implies coNP-hardness by Theorem 3
    /// when the ontology is invariant under disjoint unions).
    pub non_materializability_witness: Option<String>,
}

impl fmt::Display for OntologyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone: {}", self.zone)?;
        if let Some(fr) = self.fragments.first() {
            write!(f, "; fragment: {fr}")?;
        }
        write!(
            f,
            "; depth {}; {} vars",
            self.features.depth, self.features.max_vars
        )?;
        if self.type_rewritable {
            write!(f, "; element-type rewritable")?;
        }
        if self.non_materializability_witness.is_some() {
            write!(f, "; NON-MATERIALIZABLE (witness found)")?;
        }
        Ok(())
    }
}

impl OntologyReport {
    /// The syntactic verdict on an ontology: its features, extracted
    /// once, the Figure-1 fragments and zone they place it in, and
    /// `type_rewritable` as the caller's one
    /// [`ElementTypeSystem::build`] found it. No materializability
    /// probe is run.
    pub fn syntactic(o: &GfOntology, vocab: &Vocab, type_rewritable: bool) -> OntologyReport {
        let features = FragmentFeatures::of(o, vocab);
        let fragments = Fragment::containing(&features);
        let zone = Zone::best_of(&fragments);
        OntologyReport {
            features,
            fragments,
            zone,
            type_rewritable,
            non_materializability_witness: None,
        }
    }
}

/// Classifies an ontology: Figure-1 fragments and zone, rewriter support,
/// and (optionally) materializability probes on the given instances.
pub fn classify_ontology(
    o: &GfOntology,
    probe_instances: &[Instance],
    engine: &CertainEngine,
    vocab: &mut Vocab,
) -> OntologyReport {
    let type_rewritable = ElementTypeSystem::build(o, vocab).is_ok();
    let mut report = OntologyReport::syntactic(o, vocab, type_rewritable);
    for d in probe_instances {
        let candidates: Vec<(Ucq, Vec<gomq_core::Term>)> = atomic_candidates(o, d, vocab);
        if let Some(w) = find_disjunction_witness(o, d, &candidates, engine, vocab) {
            report.non_materializability_witness = Some(format!(
                "disjunction of {} open atomic queries certain on a {}-fact instance",
                w.queries.len(),
                d.len()
            ));
            break;
        }
    }
    report
}

/// Convenience re-export: the tightest fragment of an ontology.
pub fn fragment_of(o: &GfOntology, vocab: &Vocab) -> Option<Fragment> {
    best_fragment(o, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::Fact;
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;

    #[test]
    fn horn_ontology_report() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let r = Role::new(v.rel("R", 2));
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a),
            Concept::Exists(r, Box::new(Concept::Name(b))),
        );
        let o = to_gf(&dl);
        let ca = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(a, &[ca]));
        let engine = CertainEngine::new(1);
        let report = classify_ontology(&o, &[d], &engine, &mut v);
        assert_eq!(report.zone, Zone::Dichotomy);
        assert!(report.type_rewritable);
        assert!(report.non_materializability_witness.is_none());
        let s = format!("{report}");
        assert!(s.contains("Dichotomy"));
    }

    #[test]
    fn disjunctive_ontology_flagged() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let c = v.rel("C", 1);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a),
            Concept::Or(vec![Concept::Name(b), Concept::Name(c)]),
        );
        let o = to_gf(&dl);
        let ca = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(a, &[ca]));
        let engine = CertainEngine::new(1);
        let report = classify_ontology(&o, &[d], &engine, &mut v);
        // Depth-0 disjunctive ALC: in a dichotomy fragment, and the probe
        // finds the non-materializability witness → coNP-hard side.
        assert_eq!(report.zone, Zone::Dichotomy);
        assert!(report.non_materializability_witness.is_some());
    }
}
