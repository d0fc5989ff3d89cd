//! Pre-flight static analysis for AQFP designs.
//!
//! SuperFlow's downstream stages (synthesis, placement, routing, DRC) assume
//! a well-formed input: an acyclic netlist whose every net is driven, whose
//! cell kinds the chosen technology can map, and a flow configuration that
//! will not trip a stage assertion hours into a batch run. This crate checks
//! all of that *before* any stage engine executes, as a rule-based lint pass
//! over the parsed [`Netlist`], the resolved [`Technology`] and the flow
//! settings.
//!
//! [`Netlist`]: aqfp_netlist::Netlist
//! [`Technology`]: aqfp_cells::Technology
//!
//! # Running the linter
//!
//! ```
//! use aqfp_cells::Technology;
//! use aqfp_lint::{lint, FlowSettings, LintConfig};
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//!
//! let netlist = benchmark_circuit(Benchmark::Adder8);
//! let technology = Technology::mit_ll_sqf5ee();
//! let report = lint(
//!     "adder8",
//!     &netlist,
//!     &technology,
//!     &FlowSettings::default(),
//!     &LintConfig::default(),
//! );
//! assert!(!report.has_errors());
//! ```
//!
//! [`lint`] runs every rule; [`lint_setup`] runs only the rules that do not
//! need a netlist (technology and configuration sanity), which is what the
//! flow session runs at construction time before a design is even loaded.
//!
//! # Adding a rule
//!
//! 1. Pick the next free id in the right block: `AQFP-E0xx`/`W0xx` for
//!    netlist-graph rules, `1xx` for technology compatibility, `2xx` for
//!    flow configuration. `E`/`W` encodes the *default* severity; users can
//!    override it per run, so the letter is documentation, not policy. Ids
//!    are append-only — never renumber or reuse one.
//! 2. Implement [`rules::Rule`] in the matching module
//!    ([`rules::graph`], [`rules::tech`], [`rules::flow`]). Keep `check`
//!    total: return findings instead of panicking, and degrade gracefully on
//!    malformed input (see how the graph rules consult
//!    [`LintContext::has_dangling`]). Anchor each
//!    [`Finding`](rules::Finding) to the offending object and its
//!    [`SourceSpan`](aqfp_netlist::SourceSpan) whenever one exists.
//! 3. Register the rule in [`rules::all_rules`] — the engine, the catalog
//!    and `superflow lint --rules` all derive from that one list.
//! 4. Add a unit test per behaviour: one fixture the rule fires on and one
//!    clean fixture it stays silent on.
//! 5. Document the rule in the README's rule-catalog table.

#![warn(clippy::unwrap_used)]

pub mod config;
pub mod context;
pub mod diagnostics;
pub mod rules;

pub use config::{FlowSettings, LintConfig};
pub use context::LintContext;
pub use diagnostics::{sort_diagnostics, Diagnostic, LintReport, Severity};

use aqfp_cells::Technology;
use aqfp_netlist::Netlist;

/// One row of the rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable rule id, e.g. `AQFP-E001`.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// The catalog of registered rules, in stable order.
pub fn catalog() -> Vec<RuleInfo> {
    rules::all_rules()
        .iter()
        .map(|rule| RuleInfo { id: rule.id(), severity: rule.severity(), summary: rule.summary() })
        .collect()
}

/// Lints a parsed design against every registered rule.
pub fn lint(
    design: &str,
    netlist: &Netlist,
    technology: &Technology,
    settings: &FlowSettings,
    config: &LintConfig,
) -> LintReport {
    run(design, Some(netlist), technology, settings, config)
}

/// Lints only the technology and flow configuration — the rules with
/// `needs_netlist() == false`. Suitable at session-construction time, before
/// any design is loaded.
pub fn lint_setup(
    design: &str,
    technology: &Technology,
    settings: &FlowSettings,
    config: &LintConfig,
) -> LintReport {
    run(design, None, technology, settings, config)
}

fn run(
    design: &str,
    netlist: Option<&Netlist>,
    technology: &Technology,
    settings: &FlowSettings,
    config: &LintConfig,
) -> LintReport {
    let ctx = LintContext::new(netlist, technology, settings, config);
    let mut report = LintReport::clean(design);
    for rule in rules::all_rules() {
        if rule.needs_netlist() && netlist.is_none() {
            continue;
        }
        let Some(severity) = config.severity_for(rule.id(), rule.severity()) else {
            continue;
        };
        for finding in rule.check(&ctx) {
            report.diagnostics.push(Diagnostic {
                rule: rule.id().to_owned(),
                severity,
                message: finding.message,
                object: finding.object,
                line: finding.span.line,
                column: finding.span.column,
            });
        }
    }
    report.normalize();
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::CellKind;

    #[test]
    fn catalog_ids_are_unique_sorted_and_well_formed() {
        let catalog = catalog();
        assert!(catalog.len() >= 13, "expected a full rule set, got {}", catalog.len());
        let mut seen = std::collections::BTreeSet::new();
        for info in &catalog {
            assert!(seen.insert(info.id), "duplicate rule id {}", info.id);
        }
        for info in &catalog {
            let rest = info.id.strip_prefix("AQFP-").expect("ids start with AQFP-");
            let letter = rest.chars().next().expect("severity letter");
            assert!(matches!(letter, 'E' | 'W'), "{}", info.id);
            assert_eq!(rest.len(), 4, "{}", info.id);
            let expected = if letter == 'E' { Severity::Error } else { Severity::Warn };
            assert_eq!(info.severity, expected, "{}: letter/severity mismatch", info.id);
            assert!(!info.summary.is_empty());
        }
    }

    #[test]
    fn allow_suppresses_and_deny_escalates() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        n.add_input("floating");
        let g = n.add_gate(CellKind::Buffer, "g", vec![a]);
        n.add_output("y", g);
        let technology = Technology::mit_ll_sqf5ee();
        let settings = FlowSettings::default();

        let default_report = lint("d", &n, &technology, &settings, &LintConfig::default());
        assert!(default_report.mentions("AQFP-W006"));
        assert!(!default_report.has_errors());

        let denied = LintConfig { deny: vec!["AQFP-W006".into()], ..LintConfig::default() };
        assert!(lint("d", &n, &technology, &settings, &denied).has_errors());

        let allowed = LintConfig { allow: vec!["AQFP-W006".into()], ..LintConfig::default() };
        assert!(lint("d", &n, &technology, &settings, &allowed).diagnostics.is_empty());
    }

    #[test]
    fn setup_lint_skips_netlist_rules() {
        // A pathological settings object: the setup pass must flag it even
        // though no netlist exists yet.
        let settings = FlowSettings { threads: 0, max_splitter_arity: 1, max_drc_iterations: 0 };
        let report =
            lint_setup("d", &Technology::mit_ll_sqf5ee(), &settings, &LintConfig::default());
        assert!(report.mentions("AQFP-E201"), "{}", report.render());
        assert!(report.mentions("AQFP-W202"), "{}", report.render());
        assert!(report.diagnostics.iter().all(|d| d.rule.starts_with("AQFP-E2")
            || d.rule.starts_with("AQFP-W2")
            || d.rule.starts_with("AQFP-W1")));
    }

    #[test]
    fn generator_benchmarks_are_lint_clean_of_errors() {
        use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
        let technology = Technology::mit_ll_sqf5ee();
        let settings = FlowSettings::default();
        let config = LintConfig::default();
        for benchmark in Benchmark::ALL {
            let netlist = benchmark_circuit(benchmark);
            let report = lint(netlist.name(), &netlist, &technology, &settings, &config);
            assert!(!report.has_errors(), "{benchmark}: {}", report.render());
        }
    }
}
