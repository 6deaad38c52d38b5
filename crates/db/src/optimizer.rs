//! Cost-based plan selection among candidate plans.
//!
//! The simulator does not enumerate join orders from SQL; instead each query ships with
//! a small family of *candidate plans* (different access paths and join orders, the way
//! a real optimizer's search space would surface them) and the optimizer picks the
//! cheapest *feasible* one under the current statistics snapshot, index availability
//! and configuration parameters. That is exactly the surface module PD needs: dropping
//! an index, changing data properties or flipping a parameter can change which
//! candidate wins, producing the plan changes that PD then explains.

use crate::catalog::{Catalog, StatsSnapshot};
use crate::config::DbConfig;
use crate::cost::{Cost, CostModel};
use crate::plan::{OperatorKind, Plan};
use crate::{DbError, Result};

/// The outcome of planning: the chosen plan plus the context it was chosen in.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The winning plan.
    pub plan: Plan,
    /// Its estimated cost.
    pub cost: Cost,
    /// The statistics snapshot the decision was based on.
    pub stats: StatsSnapshot,
    /// The configuration in effect at planning time.
    pub config: DbConfig,
    /// Costs of every feasible candidate, `(plan name, total cost)`, cheapest first.
    pub considered: Vec<(String, f64)>,
}

/// The plan selector.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: DbConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: DbConfig) -> Self {
        Optimizer { config }
    }

    /// Whether a candidate plan is feasible under the current catalog and configuration:
    /// every scanned table and used index must exist, and disabled operator families
    /// (index scans, hash joins, nested loops) must not appear.
    fn is_feasible(&self, plan: &Plan, catalog: &Catalog) -> bool {
        plan.operators().iter().all(|node| {
            if let Some(table) = &node.table {
                if catalog.table(table).is_none() {
                    return false;
                }
            }
            match node.kind {
                OperatorKind::IndexScan => {
                    if !self.config.enable_indexscan {
                        return false;
                    }
                    match &node.index {
                        Some(index) => catalog.index(index).is_some(),
                        None => false,
                    }
                }
                OperatorKind::HashJoin | OperatorKind::Hash => self.config.enable_hashjoin,
                OperatorKind::NestedLoop => self.config.enable_nestloop,
                _ => true,
            }
        })
    }

    /// Chooses the cheapest feasible candidate using a fresh statistics snapshot.
    ///
    /// # Errors
    /// Returns [`DbError::NoFeasiblePlan`] if no candidate is feasible.
    pub fn choose(&self, candidates: &[Plan], catalog: &Catalog) -> Result<PlanChoice> {
        let stats = catalog.snapshot();
        let model = CostModel::new(self.config.clone());
        let mut feasible: Vec<(Plan, Cost)> = candidates
            .iter()
            .filter(|p| self.is_feasible(p, catalog))
            .map(|p| {
                let cost = model.plan_cost(p, catalog, &stats);
                (p.clone(), cost)
            })
            .collect();
        if feasible.is_empty() {
            return Err(DbError::NoFeasiblePlan);
        }
        feasible.sort_by(|a, b| a.1.total().partial_cmp(&b.1.total()).expect("finite costs"));
        let considered = feasible.iter().map(|(p, c)| (p.name.clone(), c.total())).collect();
        let (plan, cost) = feasible.swap_remove(0);
        Ok(PlanChoice { plan, cost, stats, config: self.config.clone(), considered })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Index, StorageKind, Table, Tablespace};
    use crate::plan::PlanNode;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_tablespace(Tablespace {
            name: "ts".into(),
            volume: "V1".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        c.add_table(Table {
            name: "part".into(),
            tablespace: "ts".into(),
            row_count: 2_000_000,
            avg_row_bytes: 156,
            predicate_selectivity: 0.001,
            clustering: 0.9,
        })
        .unwrap();
        c.add_index(Index {
            name: "part_pkey".into(),
            table: "part".into(),
            column: "p_partkey".into(),
            unique: true,
        })
        .unwrap();
        c
    }

    fn index_plan() -> Plan {
        Plan::new("part-index", "lookup", PlanNode::index_scan("part", "part_pkey", 0.001))
    }

    fn seq_plan() -> Plan {
        Plan::new("part-seq", "lookup", PlanNode::seq_scan("part", 0.001))
    }

    #[test]
    fn prefers_index_for_selective_lookup() {
        let cat = catalog();
        let opt = Optimizer::new(DbConfig::default());
        let choice = opt.choose(&[seq_plan(), index_plan()], &cat).unwrap();
        assert_eq!(choice.plan.name, "part-index");
        assert_eq!(choice.considered.len(), 2);
        assert!(choice.considered[0].1 <= choice.considered[1].1);
    }

    #[test]
    fn dropping_the_index_switches_to_seq_scan() {
        let mut cat = catalog();
        let opt = Optimizer::new(DbConfig::default());
        cat.drop_index("part_pkey").unwrap();
        let choice = opt.choose(&[seq_plan(), index_plan()], &cat).unwrap();
        assert_eq!(choice.plan.name, "part-seq");
        assert_eq!(choice.considered.len(), 1);
    }

    #[test]
    fn data_property_change_switches_plans() {
        let mut cat = catalog();
        let opt = Optimizer::new(DbConfig::default());
        // Make the predicate unselective: the seq scan should win now.
        cat.apply_bulk_dml("part", 1.0, 0.9).unwrap();
        let seq = Plan::new("part-seq", "lookup", PlanNode::seq_scan("part", 0.9));
        let idx = Plan::new("part-index", "lookup", PlanNode::index_scan("part", "part_pkey", 0.9));
        let choice = opt.choose(&[seq, idx], &cat).unwrap();
        assert_eq!(choice.plan.name, "part-seq");
    }

    #[test]
    fn config_change_switches_plans() {
        let cat = catalog();
        // Disabling index scans forces the sequential plan regardless of cost.
        let opt = Optimizer::new(DbConfig::default().with_enable_indexscan(false));
        let choice = opt.choose(&[seq_plan(), index_plan()], &cat).unwrap();
        assert_eq!(choice.plan.name, "part-seq");
        // An extreme random_page_cost has the same effect through pricing.
        let opt = Optimizer::new(DbConfig::default().with_random_page_cost(500.0));
        let choice = opt.choose(&[seq_plan(), index_plan()], &cat).unwrap();
        assert_eq!(choice.plan.name, "part-seq");
    }

    #[test]
    fn infeasible_everything_is_an_error() {
        let cat = catalog();
        let opt = Optimizer::new(DbConfig::default());
        // Plan referencing a missing table.
        let ghost = Plan::new("ghost", "q", PlanNode::seq_scan("ghost_table", 0.5));
        assert!(matches!(opt.choose(&[ghost], &cat), Err(DbError::NoFeasiblePlan)));
        assert!(matches!(opt.choose(&[], &cat), Err(DbError::NoFeasiblePlan)));
    }

    #[test]
    fn feasibility_checks_operator_families() {
        let cat = catalog();
        let hash_plan = Plan::new(
            "hj",
            "q",
            PlanNode::hash_join(
                0.5,
                PlanNode::seq_scan("part", 0.1),
                PlanNode::hash(PlanNode::seq_scan("part", 0.1)),
            ),
        );
        let opt_no_hash = Optimizer::new(DbConfig { enable_hashjoin: false, ..DbConfig::default() });
        assert!(!opt_no_hash.is_feasible(&hash_plan, &cat));
        let opt = Optimizer::new(DbConfig::default());
        assert!(opt.is_feasible(&hash_plan, &cat));
        // An index scan without a named index is never feasible.
        let mut broken = index_plan();
        broken.root.index = None;
        assert!(!opt.is_feasible(&broken, &cat));
    }

    #[test]
    fn choice_records_planning_context() {
        let cat = catalog();
        let opt = Optimizer::new(DbConfig::default());
        let choice = opt.choose(&[seq_plan(), index_plan()], &cat).unwrap();
        assert_eq!(choice.stats.row_count("part"), 2_000_000);
        assert_eq!(choice.config, DbConfig::default());
        assert!(choice.cost.total() > 0.0);
    }
}
