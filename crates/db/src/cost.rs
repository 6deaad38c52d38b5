//! A PostgreSQL-style plan cost model.
//!
//! The optimizer prices each candidate plan with the statistics snapshot taken at
//! planning time and the current configuration parameters. Reference \[18\] of the paper
//! (Reiss & Kanungo) showed how sensitive plan choice is to the storage cost constants
//! (`seq_page_cost`, `random_page_cost`); module PD's plan-change analysis and the
//! what-if extension both lean on this model, and module IA's second implementation
//! ("leverages the plan cost models used by database query optimizers") uses it to
//! apportion slowdown.

use crate::catalog::Catalog;
use crate::config::DbConfig;
use crate::plan::{OperatorKind, Plan, PlanNode, StatsProvider};

/// An abstract plan cost, in planner cost units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Cost charged to I/O (page fetches).
    pub io: f64,
    /// Cost charged to CPU (tuple and operator processing).
    pub cpu: f64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost { io: 0.0, cpu: 0.0 };

    /// Total cost.
    pub fn total(&self) -> f64 {
        self.io + self.cpu
    }

    /// Sum of two costs.
    pub fn plus(&self, other: Cost) -> Cost {
        Cost { io: self.io + other.io, cpu: self.cpu + other.cpu }
    }
}

/// The cost model: prices operators and whole plans.
#[derive(Debug, Clone)]
pub struct CostModel {
    config: DbConfig,
}

impl CostModel {
    /// Creates a cost model using the given configuration parameters.
    pub fn new(config: DbConfig) -> Self {
        CostModel { config }
    }

    /// The configuration the model prices with.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Cost of a single operator (excluding its children), using `stats` for
    /// cardinalities and `catalog` for physical properties (page counts, clustering).
    pub fn operator_cost(&self, node: &PlanNode, catalog: &Catalog, stats: &dyn StatsProvider) -> Cost {
        let cfg = &self.config;
        let out_rows = node.output_rows(stats);
        let in_rows = node.input_rows(stats);
        match node.kind {
            OperatorKind::SeqScan => {
                let table = node.table.as_deref().unwrap_or("");
                let pages = catalog.table(table).map(|t| t.pages()).unwrap_or(1) as f64;
                Cost { io: pages * cfg.seq_page_cost, cpu: in_rows * cfg.cpu_tuple_cost }
            }
            OperatorKind::IndexScan => {
                let table = node.table.as_deref().unwrap_or("");
                let (pages, clustering) =
                    catalog.table(table).map(|t| (t.pages() as f64, t.clustering)).unwrap_or((1.0, 0.5));
                // Heap pages fetched: selective scans touch ~one page per row when the
                // table is unclustered, fewer when clustered; never more than the table.
                let rows_fetched = out_rows.max(1.0);
                let heap_pages = (rows_fetched * (1.0 - clustering) + rows_fetched / 50.0 * clustering)
                    .min(pages)
                    .max(1.0);
                let index_pages = (rows_fetched / 200.0).max(1.0);
                Cost {
                    io: (heap_pages + index_pages) * cfg.random_page_cost,
                    cpu: rows_fetched * (cfg.cpu_index_tuple_cost + cfg.cpu_tuple_cost),
                }
            }
            OperatorKind::Hash => {
                Cost { io: self.spill_io(in_rows), cpu: in_rows * cfg.cpu_operator_cost * 2.0 }
            }
            OperatorKind::HashJoin => {
                Cost { io: 0.0, cpu: in_rows * cfg.cpu_operator_cost + out_rows * cfg.cpu_tuple_cost }
            }
            OperatorKind::NestedLoop => {
                // The inner side is re-evaluated per outer row; charge quadratic CPU.
                let outer = node.children.first().map(|c| c.output_rows(stats)).unwrap_or(0.0);
                let inner = node.children.get(1).map(|c| c.output_rows(stats)).unwrap_or(0.0);
                Cost {
                    io: 0.0,
                    cpu: (outer * inner).max(in_rows) * cfg.cpu_operator_cost * 0.1
                        + out_rows * cfg.cpu_tuple_cost,
                }
            }
            OperatorKind::MergeJoin => {
                Cost { io: 0.0, cpu: in_rows * cfg.cpu_operator_cost * 1.5 + out_rows * cfg.cpu_tuple_cost }
            }
            OperatorKind::Sort => {
                let n = in_rows.max(2.0);
                Cost { io: self.spill_io(in_rows), cpu: n * n.log2() * cfg.cpu_operator_cost }
            }
            OperatorKind::Aggregate => Cost { io: 0.0, cpu: in_rows * cfg.cpu_operator_cost * 2.0 },
            OperatorKind::Materialize => {
                Cost { io: self.spill_io(in_rows), cpu: in_rows * cfg.cpu_tuple_cost * 0.5 }
            }
            OperatorKind::Limit => Cost { io: 0.0, cpu: out_rows * cfg.cpu_tuple_cost * 0.1 },
            OperatorKind::SubPlanFilter => {
                // The subquery child is charged per distinct outer group; keep linear.
                Cost { io: 0.0, cpu: in_rows * cfg.cpu_operator_cost + out_rows * cfg.cpu_tuple_cost }
            }
        }
    }

    /// Extra I/O cost when an in-memory operator spills past `work_mem`.
    fn spill_io(&self, rows: f64) -> f64 {
        let bytes = rows * 64.0; // rough width of a spilled tuple
        let work_mem_bytes = self.config.work_mem_kb as f64 * 1024.0;
        if bytes <= work_mem_bytes {
            0.0
        } else {
            // Write + read back the overflow, in pages, at sequential cost.
            2.0 * ((bytes - work_mem_bytes) / 8192.0) * self.config.seq_page_cost
        }
    }

    /// Total cost of a whole plan.
    pub fn plan_cost(&self, plan: &Plan, catalog: &Catalog, stats: &dyn StatsProvider) -> Cost {
        plan.operators()
            .iter()
            .fold(Cost::ZERO, |acc, node| acc.plus(self.operator_cost(node, catalog, stats)))
    }

    /// Per-operator cost breakdown of a plan, in operator order.
    pub fn per_operator_costs(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        stats: &dyn StatsProvider,
    ) -> Vec<(crate::plan::OperatorId, Cost)> {
        plan.operators().iter().map(|node| (node.id, self.operator_cost(node, catalog, stats))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StorageKind, Table, Tablespace};

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
        c.add_table(Table {
            name: "nation".into(),
            tablespace: "ts".into(),
            row_count: 25,
            avg_row_bytes: 120,
            predicate_selectivity: 0.2,
            clustering: 1.0,
        })
        .unwrap();
        c
    }

    #[test]
    fn selective_index_scan_beats_seq_scan() {
        let cat = catalog();
        let model = CostModel::new(DbConfig::default());
        let seq = PlanNode::seq_scan("part", 0.001);
        let idx = PlanNode::index_scan("part", "part_pkey", 0.001);
        let seq_cost = model.operator_cost(&seq, &cat, &cat).total();
        let idx_cost = model.operator_cost(&idx, &cat, &cat).total();
        assert!(idx_cost < seq_cost, "idx {idx_cost} vs seq {seq_cost}");
    }

    #[test]
    fn unselective_index_scan_loses_to_seq_scan() {
        let cat = catalog();
        let model = CostModel::new(DbConfig::default());
        let seq = PlanNode::seq_scan("part", 0.9);
        let idx = PlanNode::index_scan("part", "part_pkey", 0.9);
        assert!(
            model.operator_cost(&idx, &cat, &cat).total() > model.operator_cost(&seq, &cat, &cat).total()
        );
    }

    #[test]
    fn random_page_cost_flips_the_access_path_decision() {
        // The Reiss/Kanungo sensitivity: a mis-set random_page_cost makes the index
        // path look worse than the sequential path at a selectivity where it used to win.
        let cat = catalog();
        let seq = PlanNode::seq_scan("part", 0.02);
        let idx = PlanNode::index_scan("part", "part_pkey", 0.02);
        let cheap_random = CostModel::new(DbConfig::default().with_random_page_cost(1.0));
        let pricey_random = CostModel::new(DbConfig::default().with_random_page_cost(40.0));
        assert!(
            cheap_random.operator_cost(&idx, &cat, &cat).total()
                < cheap_random.operator_cost(&seq, &cat, &cat).total()
        );
        assert!(
            pricey_random.operator_cost(&idx, &cat, &cat).total()
                > pricey_random.operator_cost(&seq, &cat, &cat).total()
        );
    }

    #[test]
    fn small_work_mem_makes_sorts_spill() {
        let cat = catalog();
        let sort = PlanNode::sort(PlanNode::seq_scan("part", 1.0));
        let sort_node = &sort;
        let roomy = CostModel::new(DbConfig::default().with_work_mem_kb(1_048_576));
        let tiny = CostModel::new(DbConfig::default().with_work_mem_kb(64));
        let roomy_cost = roomy.operator_cost(sort_node, &cat, &cat);
        let tiny_cost = tiny.operator_cost(sort_node, &cat, &cat);
        assert_eq!(roomy_cost.io, 0.0);
        assert!(tiny_cost.io > 0.0);
        assert!(tiny_cost.total() > roomy_cost.total());
    }

    #[test]
    fn plan_cost_sums_operators_and_tracks_data_growth() {
        let mut cat = catalog();
        let model = CostModel::new(DbConfig::default());
        let plan = Plan::new(
            "p",
            "q",
            PlanNode::hash_join(
                0.5,
                PlanNode::seq_scan("part", 0.1),
                PlanNode::hash(PlanNode::seq_scan("nation", 1.0)),
            ),
        );
        let per_op = model.per_operator_costs(&plan, &cat, &cat);
        assert_eq!(per_op.len(), plan.operator_count());
        let total: f64 = per_op.iter().map(|(_, c)| c.total()).sum();
        assert!((total - model.plan_cost(&plan, &cat, &cat).total()).abs() < 1e-6);

        let before = model.plan_cost(&plan, &cat, &cat).total();
        cat.apply_bulk_dml("part", 4.0, 0.1).unwrap();
        let after = model.plan_cost(&plan, &cat, &cat).total();
        assert!(after > before * 2.0);
    }

    #[test]
    fn cost_arithmetic() {
        let a = Cost { io: 1.0, cpu: 2.0 };
        let b = Cost { io: 0.5, cpu: 0.25 };
        let c = a.plus(b);
        assert_eq!(c.total(), 3.75);
        assert_eq!(Cost::ZERO.total(), 0.0);
    }
}
