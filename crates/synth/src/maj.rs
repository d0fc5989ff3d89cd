//! AOI → majority netlist conversion (§III-B.1 of the paper).
//!
//! The conversion walks the netlist from the outputs toward the inputs,
//! grows "three-input nets" (single-output cones whose internal gates have no
//! other fan-out and whose leaves are at most three independent signals),
//! computes each cone's truth table, and replaces the cone by the cheapest
//! majority-based implementation found in the precomputed
//! [`MappingTable`] — the paper's table-based
//! Karnaugh-map matching. A cone is only rewritten when the replacement uses
//! no more Josephson junctions than the original (ties are broken in favour
//! of fewer logic levels).
//!
//! A cone's leaves must be independent: no leaf may lie in another leaf's
//! transitive fan-in. That test runs for every candidate cone, so it never
//! walks the whole fan-in cone. Logic levels rise strictly along every
//! fan-in edge, so a gate at level `l` can only be reached from a
//! descendant through gates above `l`. The search from the descendant
//! therefore never descends to the candidate ancestor's level or below,
//! stops at the first hit, and marks visited gates in one reusable,
//! epoch-stamped buffer. The levels are recomputed together with the
//! fan-out counts, after each converted cone.

use std::collections::HashMap;

use aqfp_cells::{CellKind, Technology};
use aqfp_netlist::{traverse, GateId, Netlist, NetlistError};
use serde::{Deserialize, Serialize};

use crate::truth::{Literal, MajExpr, MappingTable, TruthTable3};

/// Statistics of one majority-conversion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MajConversionReport {
    /// Number of cones whose truth table was examined.
    pub cones_examined: usize,
    /// Number of cones actually rewritten.
    pub cones_converted: usize,
    /// Total JJ count before conversion.
    pub jj_before: usize,
    /// Total JJ count after conversion (and sweeping dead gates).
    pub jj_after: usize,
}

/// Converts an AOI netlist to a majority-based netlist.
///
/// Returns the rewritten netlist (dead gates swept) and a conversion report.
/// The conversion is function-preserving; the output may still contain
/// non-majority cells (e.g. XOR) where a majority implementation would be
/// more expensive.
pub fn convert_to_majority(
    netlist: &Netlist,
    library: &Technology,
) -> (Netlist, MajConversionReport) {
    let mut work = netlist.clone();
    let table = MappingTable::global();
    let mut report = MajConversionReport {
        jj_before: netlist.jj_count(library),
        ..MajConversionReport::default()
    };

    let (order, mut ancestry) =
        match (traverse::topological_order(&work), AncestorSearch::new(&work)) {
            (Ok(order), Ok(ancestry)) => (order, ancestry),
            _ => {
                report.jj_after = report.jj_before;
                return (work, report);
            }
        };

    // Gates consumed as cone internals; they are skipped as future roots and
    // swept at the end.
    let mut dead = vec![false; work.gate_count()];
    let mut fanout_count: Vec<usize> = count_fanouts(&work);

    for &root in order.iter().rev() {
        if root.index() >= dead.len() || dead[root.index()] {
            continue;
        }
        let kind = work.gate(root).kind;
        if !kind.is_logic() || kind.input_count() < 2 {
            continue;
        }
        let Some(cone) = grow_cone(&work, root, &dead, &fanout_count, &mut ancestry) else {
            continue;
        };
        report.cones_examined += 1;

        let tt = cone_truth_table(&work, &cone);
        let Some(recipe) = table.lookup(tt) else {
            continue;
        };
        let original_cost: usize =
            cone.internal.iter().map(|g| library.cell(work.gate(*g).kind).jj_count).sum();
        let better_cost = recipe.jj_cost() < original_cost;
        let same_cost_shallower =
            recipe.jj_cost() == original_cost && recipe.depth() < cone.internal.len();
        if !(better_cost || same_cost_shallower) {
            continue;
        }

        apply_recipe(&mut work, &cone, recipe);
        report.cones_converted += 1;
        for &g in &cone.internal {
            if g != cone.root {
                dead[g.index()] = true;
            }
        }
        // New gates were appended; extend the bookkeeping vectors and refresh
        // fan-out counts and levels (the rewrite changed them).
        dead.resize(work.gate_count(), false);
        fanout_count = count_fanouts(&work);
        // A cone is only ever rewired onto its own leaves, so the rewrite
        // cannot close a cycle; should it ever, stop converting.
        if ancestry.refresh(&work).is_err() {
            break;
        }
    }

    let swept = work.pruned();
    report.jj_after = swept.jj_count(library);
    (swept, report)
}

/// A candidate cone: `root` plus the internal gates it absorbs and the (at
/// most three) leaf signals feeding it.
#[derive(Debug, Clone)]
struct Cone {
    root: GateId,
    internal: Vec<GateId>,
    leaves: Vec<GateId>,
}

fn count_fanouts(netlist: &Netlist) -> Vec<usize> {
    // Degrees only — materializing the full Vec<Vec> adjacency here made
    // every conversion pass pay one allocation per gate.
    aqfp_netlist::csr::out_degrees(netlist)
}

/// Grows a cone rooted at `root` following the paper's search: start from the
/// root's parents and keep absorbing single-fan-out logic parents while the
/// leaf set stays within three independent signals.
fn grow_cone(
    netlist: &Netlist,
    root: GateId,
    dead: &[bool],
    fanout_count: &[usize],
    ancestry: &mut AncestorSearch,
) -> Option<Cone> {
    const MAX_INTERNAL: usize = 5;

    let mut internal = vec![root];
    let mut leaves: Vec<GateId> = Vec::new();
    for &f in &netlist.gate(root).fanin {
        if !leaves.contains(&f) {
            leaves.push(f);
        }
    }
    if leaves.len() > 3 {
        return None;
    }

    loop {
        let mut expanded = false;
        for (i, &leaf) in leaves.iter().enumerate() {
            if internal.len() >= MAX_INTERNAL {
                break;
            }
            let gate = netlist.gate(leaf);
            let expandable = gate.kind.is_logic()
                && !dead[leaf.index()]
                && fanout_count[leaf.index()] == 1
                && !gate.fanin.is_empty();
            if !expandable {
                continue;
            }
            // Tentatively replace the leaf with its parents.
            let mut candidate: Vec<GateId> = leaves.clone();
            candidate.remove(i);
            for &f in &gate.fanin {
                if !candidate.contains(&f) && !internal.contains(&f) && f != leaf {
                    candidate.push(f);
                }
            }
            if candidate.len() > 3 {
                continue;
            }
            leaves = candidate;
            internal.push(leaf);
            expanded = true;
            break;
        }
        if !expanded {
            break;
        }
    }

    if internal.len() < 2 || leaves.is_empty() || leaves.len() > 3 {
        return None;
    }
    // Independence: no leaf may be a descendant of another leaf, otherwise
    // the cone's function is not a free function of its leaves.
    for (i, &a) in leaves.iter().enumerate() {
        for &b in leaves.iter().skip(i + 1) {
            if ancestry.is_ancestor(netlist, a, b) || ancestry.is_ancestor(netlist, b, a) {
                return None;
            }
        }
    }
    Some(Cone { root, internal, leaves })
}

/// Level-pruned ancestor queries over one netlist, valid until the netlist
/// changes (then call [`AncestorSearch::refresh`]).
struct AncestorSearch {
    levels: Vec<usize>,
    /// `visited[g] == epoch` marks `g` as seen by the current query.
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<GateId>,
}

impl AncestorSearch {
    fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let mut search =
            AncestorSearch { levels: Vec::new(), visited: Vec::new(), epoch: 0, stack: Vec::new() };
        search.refresh(netlist)?;
        Ok(search)
    }

    /// Recomputes the levels after the netlist changed.
    fn refresh(&mut self, netlist: &Netlist) -> Result<(), NetlistError> {
        self.levels = traverse::logic_levels(netlist)?;
        self.visited.resize(netlist.gate_count(), 0);
        Ok(())
    }

    /// Whether `ancestor` lies in the transitive fan-in cone of
    /// `descendant` (a gate is its own ancestor).
    fn is_ancestor(&mut self, netlist: &Netlist, ancestor: GateId, descendant: GateId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let floor = self.levels[ancestor.index()];
        if self.levels[descendant.index()] <= floor {
            return false;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(descendant);
        while let Some(gate) = self.stack.pop() {
            for &driver in &netlist.gate(gate).fanin {
                if driver == ancestor {
                    return true;
                }
                let d = driver.index();
                if self.levels[d] > floor && self.visited[d] != self.epoch {
                    self.visited[d] = self.epoch;
                    self.stack.push(driver);
                }
            }
        }
        false
    }
}

/// Evaluates the cone's root as a function of its leaves.
fn cone_truth_table(netlist: &Netlist, cone: &Cone) -> TruthTable3 {
    let mut tt = 0u8;
    for assignment in 0u8..8 {
        let mut values: HashMap<GateId, bool> = HashMap::new();
        for (i, &leaf) in cone.leaves.iter().enumerate() {
            values.insert(leaf, assignment & (1 << i) != 0);
        }
        let value = eval_cone(netlist, cone.root, &mut values);
        if value {
            tt |= 1 << assignment;
        }
    }
    TruthTable3(tt)
}

fn eval_cone(netlist: &Netlist, gate: GateId, values: &mut HashMap<GateId, bool>) -> bool {
    if let Some(&v) = values.get(&gate) {
        return v;
    }
    let g = netlist.gate(gate);
    let inputs: Vec<bool> = g.fanin.iter().map(|&f| eval_cone(netlist, f, values)).collect();
    let v = aqfp_netlist::simulate::eval_kind(g.kind, &inputs);
    values.insert(gate, v);
    v
}

/// Rewrites the netlist so that `cone.root` implements `recipe` over the
/// cone's leaves. New helper gates (inverters, constants, first-level
/// majority gates) are appended; absorbed internal gates are left dangling
/// for the caller to sweep.
fn apply_recipe(netlist: &mut Netlist, cone: &Cone, recipe: &MajExpr) {
    let mut inverter_cache: HashMap<usize, GateId> = HashMap::new();
    let mut constant_cache: HashMap<bool, GateId> = HashMap::new();
    let root = cone.root;
    let suffix = root.index();

    match recipe {
        MajExpr::Leaf(lit) => {
            let (kind, fanin) = match lit {
                Literal::Var { index, inverted } => {
                    let leaf = cone.leaves[*index];
                    if *inverted {
                        (CellKind::Inverter, vec![leaf])
                    } else {
                        (CellKind::Buffer, vec![leaf])
                    }
                }
                Literal::Const(true) => (CellKind::Constant1, vec![]),
                Literal::Const(false) => (CellKind::Constant0, vec![]),
            };
            let gate = netlist.gate_mut(root);
            gate.kind = kind;
            gate.fanin = fanin;
        }
        MajExpr::Maj(f, g, h) => {
            let operands: Vec<GateId> = [f, g, h]
                .iter()
                .enumerate()
                .map(|(i, expr)| {
                    materialize(
                        netlist,
                        cone,
                        expr,
                        &mut inverter_cache,
                        &mut constant_cache,
                        suffix,
                        i,
                    )
                })
                .collect();
            let gate = netlist.gate_mut(root);
            gate.kind = CellKind::Majority3;
            gate.fanin = operands;
        }
    }
}

/// Creates (or reuses) the gate realizing `expr` and returns its id.
fn materialize(
    netlist: &mut Netlist,
    cone: &Cone,
    expr: &MajExpr,
    inverter_cache: &mut HashMap<usize, GateId>,
    constant_cache: &mut HashMap<bool, GateId>,
    suffix: usize,
    slot: usize,
) -> GateId {
    match expr {
        MajExpr::Leaf(Literal::Var { index, inverted: false }) => cone.leaves[*index],
        MajExpr::Leaf(Literal::Var { index, inverted: true }) => {
            if let Some(&id) = inverter_cache.get(index) {
                return id;
            }
            let id = netlist.add_gate(
                CellKind::Inverter,
                format!("majinv_{suffix}_{index}"),
                vec![cone.leaves[*index]],
            );
            inverter_cache.insert(*index, id);
            id
        }
        MajExpr::Leaf(Literal::Const(value)) => {
            if let Some(&id) = constant_cache.get(value) {
                return id;
            }
            let kind = if *value { CellKind::Constant1 } else { CellKind::Constant0 };
            let id = netlist.add_gate(kind, format!("majconst_{suffix}_{value}"), vec![]);
            constant_cache.insert(*value, id);
            id
        }
        MajExpr::Maj(f, g, h) => {
            let operands: Vec<GateId> = [f, g, h]
                .iter()
                .enumerate()
                .map(|(i, sub)| {
                    materialize(
                        netlist,
                        cone,
                        sub,
                        inverter_cache,
                        constant_cache,
                        suffix,
                        slot * 4 + i + 1,
                    )
                })
                .collect();
            netlist.add_gate(CellKind::Majority3, format!("majl1_{suffix}_{slot}"), operands)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::generators::{benchmark_circuit, kogge_stone_adder, Benchmark, LargeFamily};
    use aqfp_netlist::simulate;
    use proptest::prelude::*;

    fn library() -> Technology {
        Technology::mit_ll_sqf5ee()
    }

    /// AND(AND(a, b), c): a classic cone that a single majority cannot
    /// express, but two levels can (MAJ(MAJ(a,b,0), c, 0)).
    #[test]
    fn nested_and_cone_is_not_worsened() {
        let mut n = Netlist::new("and3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::And, "g2", vec![g1, c]);
        n.add_output("y", g2);

        let (converted, report) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        assert!(report.jj_after <= report.jj_before);
    }

    /// OR(AND(a,b), AND(b,c)) | ... the carry function ab + bc + ca is the
    /// textbook majority example: five AOI gates collapse to cheaper
    /// majority logic.
    #[test]
    fn carry_cone_converts_to_majority() {
        let mut n = Netlist::new("carry");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(CellKind::And, "ab", vec![a, b]);
        let bc = n.add_gate(CellKind::And, "bc", vec![b, c]);
        let ca = n.add_gate(CellKind::And, "ca", vec![c, a]);
        let o1 = n.add_gate(CellKind::Or, "o1", vec![ab, bc]);
        let o2 = n.add_gate(CellKind::Or, "o2", vec![o1, ca]);
        n.add_output("carry", o2);

        let lib = library();
        let (converted, report) = convert_to_majority(&n, &lib);
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        assert!(
            report.jj_after < report.jj_before,
            "majority conversion should save JJs: {report:?}"
        );
        assert!(converted.count_kind(CellKind::Majority3) >= 1);
    }

    #[test]
    fn conversion_preserves_adder_function() {
        let n = kogge_stone_adder(4);
        let (converted, _) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap(), "4-bit adder must stay exact");
    }

    #[test]
    fn conversion_never_increases_jj_count_on_benchmarks() {
        let lib = library();
        for b in [Benchmark::Adder8, Benchmark::Apc32, Benchmark::C432] {
            let n = benchmark_circuit(b);
            let (converted, report) = convert_to_majority(&n, &lib);
            converted.validate().expect("valid");
            assert!(
                report.jj_after <= report.jj_before,
                "{b}: JJ count must not grow ({report:?})"
            );
            assert!(
                simulate::equivalent_sampled(&n, &converted, 128, 0xC0FFEE).unwrap(),
                "{b}: conversion must preserve function"
            );
        }
    }

    #[test]
    fn cones_are_not_grown_through_multi_fanout_gates() {
        // g1 feeds both g2 and the output, so it cannot be absorbed.
        let mut n = Netlist::new("shared");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::Or, "g2", vec![g1, c]);
        n.add_output("y1", g1);
        n.add_output("y2", g2);

        let (converted, _) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        // g1 must still exist (its value is observable at y1).
        assert!(converted.primary_outputs().len() == 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The level-pruned search agrees with the plain definition (`a` is
        /// in the transitive fan-in cone of `b`) on random gate pairs, half
        /// of them drawn from inside the cone, across an epoch wrap-around.
        #[test]
        fn pruned_ancestor_search_matches_the_fanin_cone(
            case in (16usize..400, any::<u64>(), any::<u64>())
        ) {
            let (cells, seed, mut picks) = case;
            let netlist = LargeFamily::RandomDag.by_cells(cells, seed);
            let mut search = AncestorSearch::new(&netlist).unwrap();
            search.epoch = u32::MAX - 20;
            let n = netlist.gate_count() as u64;
            let mut next = move || {
                // SplitMix64.
                picks = picks.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = picks;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for round in 0..64 {
                let b = GateId((next() % n) as usize);
                let cone = traverse::fanin_cone(&netlist, b);
                let a = if round % 2 == 0 {
                    cone[(next() % cone.len() as u64) as usize]
                } else {
                    GateId((next() % n) as usize)
                };
                let oracle = cone.binary_search(&a).is_ok();
                prop_assert_eq!(search.is_ancestor(&netlist, a, b), oracle, "{:?} -> {:?}", a, b);
            }
        }
    }
}
