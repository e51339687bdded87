//! The named experiment suite — the single source of truth for what
//! `smt-experiments -- all` runs (every entry but `meta`), shared by the
//! CLI and the benchmark, which times a cold and a warm pass over the same
//! list.

use crate::runner::Campaign;
use crate::{ablation, extensions, figures, meta, table2a, table4, taxonomy};

/// An experiment entry point: renders its report against a campaign.
pub type ExperimentFn = fn(&Campaign) -> String;

/// Every experiment, in the order `all` runs them.
pub const ALL: &[(&str, ExperimentFn)] = &[
    ("table2a", run_table2a),
    ("fig1", run_fig1),
    ("fig2", run_fig2),
    ("fig3", run_fig3),
    ("table4", run_table4),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("ablation", ablation::report),
    ("taxonomy", taxonomy::report),
    ("extensions", extensions::report),
    ("meta", meta::report),
];

/// Find an experiment by CLI name.
pub fn lookup(name: &str) -> Option<ExperimentFn> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

fn run_table2a(c: &Campaign) -> String {
    table2a::report(&table2a::compute(c))
}

fn run_fig1(c: &Campaign) -> String {
    figures::fig1_report(&figures::baseline_grid(c))
}

fn run_fig2(c: &Campaign) -> String {
    figures::fig2_report(&figures::fig2_compute(c))
}

fn run_fig3(c: &Campaign) -> String {
    figures::fig3_report(&figures::baseline_grid(c))
}

fn run_table4(c: &Campaign) -> String {
    table4::report(&table4::compute(c))
}

fn run_fig4(c: &Campaign) -> String {
    figures::fig4_report(&figures::small_grid(c))
}

fn run_fig5(c: &Campaign) -> String {
    figures::fig5_report(&figures::deep_grid(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_knows_every_name() {
        for (name, _) in ALL {
            assert!(lookup(name).is_some());
        }
        assert!(lookup("nonsense").is_none());
    }

    #[test]
    fn all_matches_the_documented_order() {
        let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "table2a",
                "fig1",
                "fig2",
                "fig3",
                "table4",
                "fig4",
                "fig5",
                "ablation",
                "taxonomy",
                "extensions",
                "meta"
            ]
        );
    }
}
