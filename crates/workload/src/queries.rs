//! Report queries and their candidate execution plans.
//!
//! The centrepiece is TPC-H Query 2 with the 25-operator / 9-leaf plan of Figure 1:
//! a main join block over partsupp, part, supplier, nation and region feeding a sort
//! and LIMIT, filtered by a correlated minimum-supply-cost subquery that scans
//! partsupp, supplier, nation and region again. Operator numbers are assigned in
//! pre-order so that — as in the paper — the two partsupp leaves land on O8 and O22
//! and the only V1-resident table is read by exactly those two operators.
//!
//! Each query ships several *candidate* plans (alternative access paths / join orders)
//! so the optimizer has a real choice to make; dropping an index, changing data
//! properties or flipping a planner parameter can change the winner, which is what
//! module PD's plan-change analysis investigates.

use diads_db::{Catalog, Plan, PlanNode};

/// A named report query together with its candidate plans.
#[derive(Debug, Clone)]
pub struct ReportQuery {
    /// Query name (e.g. `TPC-H Q2`).
    pub name: String,
    /// Candidate plans for the optimizer to choose from.
    pub candidates: Vec<Plan>,
}

/// Leaf selectivities used by the Q2 plans, read from the catalog's data properties so
/// that bulk-DML faults shift cardinalities consistently.
fn part_selectivity(catalog: &Catalog) -> f64 {
    catalog.table("part").map(|t| t.predicate_selectivity).unwrap_or(0.01)
}

/// The Figure-1 plan for TPC-H Query 2: 25 operators, 9 leaves, partsupp read by O8 and
/// O22, part read through an index, sorted and limited output.
pub fn q2_paper_plan(catalog: &Catalog) -> Plan {
    let p_sel = part_selectivity(catalog);
    // Main block: partsupp ⋈ part ⋈ supplier ⋈ nation ⋈ region.
    let main_block = PlanNode::hash_join(
        0.2, // region filter keeps one of five regions
        PlanNode::hash_join(
            1.0,
            PlanNode::hash_join(
                0.8,
                PlanNode::hash_join(
                    0.01, // only partsupp rows whose part survives the part predicate
                    PlanNode::seq_scan("partsupp", 1.0),
                    PlanNode::hash(PlanNode::index_scan("part", "part_type_size_idx", p_sel)),
                ),
                PlanNode::hash(PlanNode::seq_scan("supplier", 1.0)),
            ),
            PlanNode::hash(PlanNode::seq_scan("nation", 1.0)),
        ),
        PlanNode::hash(PlanNode::seq_scan("region", 0.2)),
    );
    // Correlated subquery: min(ps_supplycost) over partsupp ⋈ supplier ⋈ nation ⋈ region.
    let subquery = PlanNode::aggregate(
        0.05,
        PlanNode::hash_join(
            0.2,
            PlanNode::hash_join(
                1.0,
                PlanNode::hash_join(
                    0.8,
                    PlanNode::hash(PlanNode::seq_scan("partsupp", 1.0)),
                    PlanNode::index_scan("supplier", "supplier_pkey", 1.0),
                ),
                PlanNode::seq_scan("nation", 1.0),
            ),
            PlanNode::seq_scan("region", 0.2),
        ),
    );
    let root = PlanNode::limit(0.25, PlanNode::sort(PlanNode::subplan_filter(0.01, main_block, subquery)));
    Plan::new("q2-figure1", "TPC-H Q2", root)
}

/// An alternative Q2 plan that reads `part` with a sequential scan (what the optimizer
/// falls back to when the part index is dropped or random I/O is priced out).
pub(crate) fn q2_seqscan_part_plan(catalog: &Catalog) -> Plan {
    let p_sel = part_selectivity(catalog);
    let figure1 = q2_paper_plan(catalog);
    // Rebuild with the part access path swapped; reuse the same shape otherwise.
    let main_block = PlanNode::hash_join(
        0.2,
        PlanNode::hash_join(
            1.0,
            PlanNode::hash_join(
                0.8,
                PlanNode::hash_join(
                    0.01,
                    PlanNode::seq_scan("partsupp", 1.0),
                    PlanNode::hash(PlanNode::seq_scan("part", p_sel)),
                ),
                PlanNode::hash(PlanNode::seq_scan("supplier", 1.0)),
            ),
            PlanNode::hash(PlanNode::seq_scan("nation", 1.0)),
        ),
        PlanNode::hash(PlanNode::seq_scan("region", 0.2)),
    );
    let subquery = PlanNode::aggregate(
        0.05,
        PlanNode::hash_join(
            0.2,
            PlanNode::hash_join(
                1.0,
                PlanNode::hash_join(
                    0.8,
                    PlanNode::hash(PlanNode::seq_scan("partsupp", 1.0)),
                    PlanNode::seq_scan("supplier", 1.0),
                ),
                PlanNode::seq_scan("nation", 1.0),
            ),
            PlanNode::seq_scan("region", 0.2),
        ),
    );
    let root = PlanNode::limit(0.25, PlanNode::sort(PlanNode::subplan_filter(0.01, main_block, subquery)));
    debug_assert_eq!(figure1.operator_count(), 25);
    Plan::new("q2-seqscan-part", "TPC-H Q2", root)
}

/// An alternative Q2 plan driven from the part side with nested loops into partsupp
/// through its partkey index — cheaper when the part predicate is very selective and
/// partsupp has grown large.
pub(crate) fn q2_part_driven_plan(catalog: &Catalog) -> Plan {
    let p_sel = part_selectivity(catalog);
    let main_block = PlanNode::hash_join(
        0.2,
        PlanNode::hash_join(
            1.0,
            PlanNode::hash_join(
                0.8,
                PlanNode::nested_loop(
                    1.0,
                    PlanNode::index_scan("part", "part_type_size_idx", p_sel),
                    // The partkey index has poor physical correlation on partsupp, so
                    // the probe side touches a large fraction of the heap.
                    PlanNode::index_scan("partsupp", "partsupp_partkey_idx", 0.1),
                ),
                PlanNode::hash(PlanNode::seq_scan("supplier", 1.0)),
            ),
            PlanNode::hash(PlanNode::seq_scan("nation", 1.0)),
        ),
        PlanNode::hash(PlanNode::seq_scan("region", 0.2)),
    );
    let subquery = PlanNode::aggregate(
        0.05,
        PlanNode::hash_join(
            0.2,
            PlanNode::hash_join(
                1.0,
                PlanNode::nested_loop(
                    0.8,
                    PlanNode::index_scan("partsupp", "partsupp_partkey_idx", 0.1),
                    PlanNode::index_scan("supplier", "supplier_pkey", 1.0),
                ),
                PlanNode::seq_scan("nation", 1.0),
            ),
            PlanNode::seq_scan("region", 0.2),
        ),
    );
    let root = PlanNode::limit(0.25, PlanNode::sort(PlanNode::subplan_filter(0.01, main_block, subquery)));
    Plan::new("q2-part-driven", "TPC-H Q2", root)
}

/// The candidate plans for TPC-H Q2, Figure-1 plan first.
pub fn q2_plan_candidates(catalog: &Catalog) -> Vec<Plan> {
    vec![q2_paper_plan(catalog), q2_seqscan_part_plan(catalog), q2_part_driven_plan(catalog)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{tpch_catalog, TpchLayout};
    use diads_db::{DbConfig, OperatorId, OperatorKind, Optimizer};

    fn catalog() -> Catalog {
        tpch_catalog(1.0, &TpchLayout::paper_default())
    }

    #[test]
    fn figure1_plan_has_25_operators_and_9_leaves() {
        let plan = q2_paper_plan(&catalog());
        assert_eq!(plan.operator_count(), 25);
        assert_eq!(plan.leaves().len(), 9);
    }

    #[test]
    fn partsupp_is_read_by_o8_and_o22_exactly() {
        // Figure 1 / §5: the two leaf operators connected to volume V1 are O8 and O22;
        // the other seven leaves read V2-resident tables.
        let cat = catalog();
        let plan = q2_paper_plan(&cat);
        let partsupp_leaves: Vec<u32> =
            plan.leaves().iter().filter(|n| n.table.as_deref() == Some("partsupp")).map(|n| n.id.0).collect();
        assert_eq!(partsupp_leaves, vec![8, 22]);
        let v2_leaves = plan
            .leaves()
            .iter()
            .filter(|n| cat.volume_of_table(n.table.as_deref().unwrap()).as_deref() == Some("V2"))
            .count();
        assert_eq!(v2_leaves, 7);
    }

    #[test]
    fn figure1_plan_reads_part_through_an_index() {
        let plan = q2_paper_plan(&catalog());
        let part_leaf = plan.leaves().into_iter().find(|n| n.table.as_deref() == Some("part")).unwrap();
        assert_eq!(part_leaf.kind, OperatorKind::IndexScan);
        assert_eq!(part_leaf.index.as_deref(), Some("part_type_size_idx"));
    }

    #[test]
    fn o17_is_the_subquery_aggregate() {
        let plan = q2_paper_plan(&catalog());
        assert_eq!(plan.operator(OperatorId(17)).unwrap().kind, OperatorKind::Aggregate);
        // O3 joins the main block with the subquery.
        assert_eq!(plan.operator(OperatorId(3)).unwrap().kind, OperatorKind::SubPlanFilter);
        // The subquery aggregate's subtree contains the second partsupp scan (O22).
        assert!(plan.subtree_of(OperatorId(17)).contains(&OperatorId(22)));
    }

    #[test]
    fn candidate_plans_are_structurally_distinct() {
        let cat = catalog();
        let candidates = q2_plan_candidates(&cat);
        assert_eq!(candidates.len(), 3);
        let mut fingerprints: Vec<String> = candidates.iter().map(|p| p.fingerprint()).collect();
        fingerprints.sort();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 3);
        assert!(candidates.iter().all(|p| p.query == "TPC-H Q2"));
    }

    #[test]
    fn optimizer_prefers_the_figure1_plan_by_default() {
        let cat = catalog();
        let optimizer = Optimizer::new(DbConfig::paper_default());
        let choice = optimizer.choose(&q2_plan_candidates(&cat), &cat).unwrap();
        assert_eq!(choice.plan.name, "q2-figure1");
    }

    #[test]
    fn dropping_the_part_index_changes_the_chosen_plan() {
        let mut cat = catalog();
        let optimizer = Optimizer::new(DbConfig::paper_default());
        cat.drop_index("part_type_size_idx").unwrap();
        let choice = optimizer.choose(&q2_plan_candidates(&cat), &cat).unwrap();
        assert_ne!(choice.plan.name, "q2-figure1");
        // The surviving plan has a different fingerprint than the paper plan.
        assert_ne!(choice.plan.fingerprint(), q2_paper_plan(&cat).fingerprint());
    }
}
