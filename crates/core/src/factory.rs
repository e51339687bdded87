//! Policy registry: construct any of the paper's six policies by kind or
//! name, in the order the figures present them.

use smt_pipeline::FetchPolicy;

use crate::dwarn::DWarn;
use crate::gating::{DataGating, PredictiveDataGating};
use crate::icount::Icount;
use crate::meta::{MetaPolicy, SelectorKind};
use crate::stall_flush::{Flush, Stall};

/// The policies evaluated in the paper, plus the pure-priority DWarn
/// ablation and the beyond-the-paper switching meta-policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Icount,
    Stall,
    Flush,
    Dg,
    Pdg,
    DWarn,
    /// DWarn without the hybrid gate (ablation; not a paper figure series).
    DWarnPriorityOnly,
    /// DC-PRED \[7\]: fetch-stage L2-miss prediction + resource limiting
    /// (discussed in the paper's §2.1 taxonomy; not in its figure series).
    DcPred,
    /// Switching composite over {DWarn, STALL, FLUSH, ICOUNT}, re-selected
    /// at interval boundaries by the given rule (beyond the paper; see
    /// [`crate::meta`]).
    Meta(SelectorKind),
}

impl PolicyKind {
    /// Every policy kind, in declaration order.
    pub const ALL: [PolicyKind; 11] = [
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dg,
        PolicyKind::Pdg,
        PolicyKind::DWarn,
        PolicyKind::DWarnPriorityOnly,
        PolicyKind::DcPred,
        PolicyKind::Meta(SelectorKind::MissRate),
        PolicyKind::Meta(SelectorKind::IpcGreedy),
        PolicyKind::Meta(SelectorKind::Epsilon),
    ];

    /// The six policies in the order of the paper's figures:
    /// IC, STALL, FLUSH, DG, PDG, DWarn.
    pub fn paper_set() -> [PolicyKind; 6] {
        [
            PolicyKind::Icount,
            PolicyKind::Stall,
            PolicyKind::Flush,
            PolicyKind::Dg,
            PolicyKind::Pdg,
            PolicyKind::DWarn,
        ]
    }

    /// The baseline policies DWarn is compared against (figure legends:
    /// "DWarn / IC", "DWarn / STALL", ...).
    pub fn baselines() -> [PolicyKind; 5] {
        [
            PolicyKind::Icount,
            PolicyKind::Stall,
            PolicyKind::Flush,
            PolicyKind::Dg,
            PolicyKind::Pdg,
        ]
    }

    /// The three switching meta-policies (beyond the paper), in the order
    /// the results chapter tabulates them.
    pub fn meta_set() -> [PolicyKind; 3] {
        [
            PolicyKind::Meta(SelectorKind::MissRate),
            PolicyKind::Meta(SelectorKind::IpcGreedy),
            PolicyKind::Meta(SelectorKind::Epsilon),
        ]
    }

    /// Display name as used in the paper.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Icount => "ICOUNT",
            PolicyKind::Stall => "STALL",
            PolicyKind::Flush => "FLUSH",
            PolicyKind::Dg => "DG",
            PolicyKind::Pdg => "PDG",
            PolicyKind::DWarn => "DWARN",
            PolicyKind::DWarnPriorityOnly => "DWARN-PRIO",
            PolicyKind::DcPred => "DC-PRED",
            PolicyKind::Meta(s) => s.policy_name(),
        }
    }

    /// Campaign cache-key description. Identical to [`PolicyKind::name`]
    /// for the static policies (existing cache entries stay valid); for
    /// the meta-policies it additionally pins the full selector
    /// configuration (window, candidate set, rule constants), so a
    /// reconfigured selector can never be served a stale cached result.
    pub fn cache_desc(self) -> String {
        match self {
            PolicyKind::Meta(s) => MetaPolicy::cache_desc(s, crate::meta::DEFAULT_WINDOW),
            k => k.name().to_string(),
        }
    }

    /// Parse a (case-insensitive) policy name.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_uppercase().as_str() {
            "IC" | "ICOUNT" => Some(PolicyKind::Icount),
            "STALL" => Some(PolicyKind::Stall),
            "FLUSH" => Some(PolicyKind::Flush),
            "DG" => Some(PolicyKind::Dg),
            "PDG" => Some(PolicyKind::Pdg),
            "DWARN" => Some(PolicyKind::DWarn),
            "DWARN-PRIO" | "DWARNPRIO" => Some(PolicyKind::DWarnPriorityOnly),
            "DC-PRED" | "DCPRED" => Some(PolicyKind::DcPred),
            "META-MISS" | "METAMISS" => Some(PolicyKind::Meta(SelectorKind::MissRate)),
            "META-IPC" | "METAIPC" => Some(PolicyKind::Meta(SelectorKind::IpcGreedy)),
            "META-EPS" | "METAEPS" => Some(PolicyKind::Meta(SelectorKind::Epsilon)),
            _ => None,
        }
    }

    /// Instantiate the policy, boxed as the simulator holds it. This is
    /// the only way to get a policy from a kind: grid runs, custom runs
    /// and tests all call it.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn build(self) -> Box<dyn FetchPolicy> {
        match self {
            PolicyKind::Icount => Box::new(Icount::new()),
            PolicyKind::Stall => Box::new(Stall::new()),
            PolicyKind::Flush => Box::new(Flush::new()),
            PolicyKind::Dg => Box::new(DataGating::new()),
            PolicyKind::Pdg => Box::new(PredictiveDataGating::new()),
            PolicyKind::DWarn => Box::new(DWarn::new()),
            PolicyKind::DWarnPriorityOnly => Box::new(DWarn::priority_only()),
            PolicyKind::DcPred => Box::new(crate::dcpred::DcPred::new()),
            PolicyKind::Meta(s) => Box::new(MetaPolicy::new(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_order_matches_figures() {
        let names: Vec<&str> = PolicyKind::paper_set().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["ICOUNT", "STALL", "FLUSH", "DG", "PDG", "DWARN"]
        );
    }

    #[test]
    fn build_produces_matching_names() {
        for k in PolicyKind::paper_set() {
            assert_eq!(k.build().name(), k.name());
        }
        assert_eq!(
            PolicyKind::DWarnPriorityOnly.build().name(),
            "DWARN",
            "the ablation is still DWarn"
        );
    }

    #[test]
    fn all_lists_every_kind_in_declaration_order() {
        // No wildcard: a new variant fails to compile here until it is
        // given its slot, and the loop then demands that slot in ALL.
        let slot = |k: PolicyKind| match k {
            PolicyKind::Icount => 0,
            PolicyKind::Stall => 1,
            PolicyKind::Flush => 2,
            PolicyKind::Dg => 3,
            PolicyKind::Pdg => 4,
            PolicyKind::DWarn => 5,
            PolicyKind::DWarnPriorityOnly => 6,
            PolicyKind::DcPred => 7,
            PolicyKind::Meta(SelectorKind::MissRate) => 8,
            PolicyKind::Meta(SelectorKind::IpcGreedy) => 9,
            PolicyKind::Meta(SelectorKind::Epsilon) => 10,
        };
        for (i, k) in PolicyKind::ALL.into_iter().enumerate() {
            assert_eq!(slot(k), i, "{k:?}");
        }
    }

    #[test]
    fn warn_reporting_kinds_reject_a_reversed_order() {
        use smt_pipeline::{PolicyView, ThreadView};
        // Thread 1 has an outstanding L1 miss; thread 0 does not.
        let threads = [
            ThreadView::default(),
            ThreadView {
                dmiss_count: 1,
                ..ThreadView::default()
            },
        ];
        let view = PolicyView {
            cycle: 0,
            threads: &threads,
        };
        let mut warned = 0;
        for k in PolicyKind::ALL {
            let mut p = k.build();
            let mut order = p.fetch_order(&view);
            if (0..threads.len()).all(|t| p.warn_level(&view, t) == 0) {
                continue;
            }
            warned += 1;
            assert_eq!(p.audit_order(&view, &order), Ok(()), "{k:?}");
            order.reverse();
            assert!(
                p.audit_order(&view, &order).is_err(),
                "{k:?} warns about the missing thread but accepts the reversed order {order:?}"
            );
        }
        assert!(warned > 0, "no policy kind reported a warn level");
    }

    #[test]
    fn parse_round_trips() {
        // `parse` matches strings, so the compiler cannot see a missing
        // name there; every kind must come back from its own name.
        for k in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(PolicyKind::parse("ic"), Some(PolicyKind::Icount));
        assert_eq!(PolicyKind::parse("dwarn"), Some(PolicyKind::DWarn));
        assert_eq!(PolicyKind::parse("nonsense"), None);
    }
}
