//! Query execution plans: operators, plan trees, numbering and fingerprints.
//!
//! A plan is a tree of operators. Operators are numbered `O1..On` in pre-order (the
//! numbering Figure 1 uses for the 25-operator TPC-H Q2 plan); leaf operators scan a
//! table (sequentially or through an index) and therefore anchor the mapping from the
//! database layer to SAN volumes. Plans carry a structural *fingerprint* so module PD
//! can decide whether satisfactory and unsatisfactory runs used the same plan.

use crate::catalog::{Catalog, StatsSnapshot};

/// A plan-operator identifier (`O1`, `O2`, ... in pre-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub u32);

impl OperatorId {
    /// The operator's display name (`O7`).
    pub fn name(&self) -> String {
        format!("O{}", self.0)
    }
}

impl std::fmt::Display for OperatorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// The kind of a plan operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Full sequential scan of a table.
    SeqScan,
    /// Index scan of a table.
    IndexScan,
    /// Hash-table build over the child's output (inner side of a hash join).
    Hash,
    /// Hash join of two children.
    HashJoin,
    /// Nested-loop join of two children.
    NestedLoop,
    /// Merge join of two children.
    MergeJoin,
    /// Sort of the child's output.
    Sort,
    /// Grouping/aggregation over the child's output.
    Aggregate,
    /// Materialisation of the child's output.
    Materialize,
    /// LIMIT over the child's output.
    Limit,
    /// Correlated sub-plan filter: joins the outer child with an aggregated subquery
    /// (how PostgreSQL evaluates TPC-H Q2's `= (select min(...))` predicate).
    SubPlanFilter,
}

impl OperatorKind {
    /// Whether this operator reads base-table data (and therefore touches a volume).
    pub fn is_leaf(self) -> bool {
        matches!(self, OperatorKind::SeqScan | OperatorKind::IndexScan)
    }

    /// Display label used in plan renderings.
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::SeqScan => "Seq Scan",
            OperatorKind::IndexScan => "Index Scan",
            OperatorKind::Hash => "Hash",
            OperatorKind::HashJoin => "Hash Join",
            OperatorKind::NestedLoop => "Nested Loop",
            OperatorKind::MergeJoin => "Merge Join",
            OperatorKind::Sort => "Sort",
            OperatorKind::Aggregate => "Aggregate",
            OperatorKind::Materialize => "Materialize",
            OperatorKind::Limit => "Limit",
            OperatorKind::SubPlanFilter => "SubPlan Filter",
        }
    }
}

impl std::fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A source of cardinality statistics: live catalog data properties or a frozen
/// planning-time snapshot.
pub trait StatsProvider {
    /// Row count of a table.
    fn row_count(&self, table: &str) -> u64;
    /// Typical predicate selectivity of a table.
    fn selectivity(&self, table: &str) -> f64;
}

impl StatsProvider for Catalog {
    fn row_count(&self, table: &str) -> u64 {
        self.table(table).map(|t| t.row_count).unwrap_or(0)
    }

    fn selectivity(&self, table: &str) -> f64 {
        self.table(table).map(|t| t.predicate_selectivity).unwrap_or(1.0)
    }
}

impl StatsProvider for StatsSnapshot {
    fn row_count(&self, table: &str) -> u64 {
        StatsSnapshot::row_count(self, table)
    }

    fn selectivity(&self, table: &str) -> f64 {
        StatsSnapshot::selectivity(self, table)
    }
}

/// One node of a plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator number (assigned by [`Plan::new`] in pre-order).
    pub id: OperatorId,
    /// What the operator does.
    pub kind: OperatorKind,
    /// The scanned table, for leaf operators.
    pub table: Option<String>,
    /// The index used, for index scans.
    pub index: Option<String>,
    /// Output selectivity: for scans, the fraction of the table's rows produced; for
    /// all other operators, the fraction of the (largest) input retained.
    pub selectivity: f64,
    /// Child operators (0 for leaves, 1 for unary operators, 2 for joins).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn node(kind: OperatorKind, selectivity: f64, children: Vec<PlanNode>) -> Self {
        PlanNode { id: OperatorId(0), kind, table: None, index: None, selectivity, children }
    }

    /// A sequential scan of `table` keeping `selectivity` of its rows.
    pub fn seq_scan(table: &str, selectivity: f64) -> Self {
        PlanNode { table: Some(table.to_string()), ..Self::node(OperatorKind::SeqScan, selectivity, vec![]) }
    }

    /// An index scan of `table` through `index` keeping `selectivity` of its rows.
    pub fn index_scan(table: &str, index: &str, selectivity: f64) -> Self {
        PlanNode {
            table: Some(table.to_string()),
            index: Some(index.to_string()),
            ..Self::node(OperatorKind::IndexScan, selectivity, vec![])
        }
    }

    /// A hash build over a child.
    pub fn hash(child: PlanNode) -> Self {
        Self::node(OperatorKind::Hash, 1.0, vec![child])
    }

    /// A hash join of two children.
    pub fn hash_join(selectivity: f64, outer: PlanNode, inner: PlanNode) -> Self {
        Self::node(OperatorKind::HashJoin, selectivity, vec![outer, inner])
    }

    /// A nested-loop join of two children.
    pub fn nested_loop(selectivity: f64, outer: PlanNode, inner: PlanNode) -> Self {
        Self::node(OperatorKind::NestedLoop, selectivity, vec![outer, inner])
    }

    /// A sort over a child.
    pub fn sort(child: PlanNode) -> Self {
        Self::node(OperatorKind::Sort, 1.0, vec![child])
    }

    /// An aggregation retaining `selectivity` of its input groups.
    pub fn aggregate(selectivity: f64, child: PlanNode) -> Self {
        Self::node(OperatorKind::Aggregate, selectivity, vec![child])
    }

    /// A LIMIT retaining `selectivity` of its input.
    pub fn limit(selectivity: f64, child: PlanNode) -> Self {
        Self::node(OperatorKind::Limit, selectivity, vec![child])
    }

    /// A correlated sub-plan filter joining the outer child with a subquery child.
    pub fn subplan_filter(selectivity: f64, outer: PlanNode, subquery: PlanNode) -> Self {
        Self::node(OperatorKind::SubPlanFilter, selectivity, vec![outer, subquery])
    }

    /// Output cardinality of this operator under the given statistics.
    pub fn output_rows(&self, stats: &dyn StatsProvider) -> f64 {
        match self.kind {
            OperatorKind::SeqScan | OperatorKind::IndexScan => {
                let table = self.table.as_deref().unwrap_or("");
                stats.row_count(table) as f64 * self.selectivity.clamp(0.0, 1.0)
            }
            _ => {
                let input = self.children.iter().map(|c| c.output_rows(stats)).fold(0.0_f64, f64::max);
                (input * self.selectivity.clamp(0.0, 1.0)).max(if self.children.is_empty() {
                    0.0
                } else {
                    1.0
                })
            }
        }
    }

    /// Rows this operator has to *process* (the sum of its inputs, or the scanned rows
    /// for leaves) — the driver of its CPU cost.
    pub fn input_rows(&self, stats: &dyn StatsProvider) -> f64 {
        match self.kind {
            OperatorKind::SeqScan => stats.row_count(self.table.as_deref().unwrap_or("")) as f64,
            OperatorKind::IndexScan => self.output_rows(stats).max(1.0),
            _ => self.children.iter().map(|c| c.output_rows(stats)).sum(),
        }
    }

    fn visit<'a>(&'a self, out: &mut Vec<&'a PlanNode>) {
        out.push(self);
        for c in &self.children {
            c.visit(out);
        }
    }

    fn renumber(&mut self, next: &mut u32) {
        self.id = OperatorId(*next);
        *next += 1;
        for c in &mut self.children {
            c.renumber(next);
        }
    }

    fn fingerprint_into(&self, out: &mut String) {
        out.push('(');
        out.push_str(self.kind.label());
        if let Some(t) = &self.table {
            out.push(':');
            out.push_str(t);
        }
        if let Some(i) = &self.index {
            out.push('@');
            out.push_str(i);
        }
        for c in &self.children {
            c.fingerprint_into(out);
        }
        out.push(')');
    }
}

/// A complete, numbered query execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// A short name for the plan alternative (e.g. `q2-partsupp-driven`).
    pub name: String,
    /// The query this plan answers (e.g. `TPC-H Q2`).
    pub query: String,
    /// The root operator.
    pub root: PlanNode,
}

impl Plan {
    /// Creates a plan and assigns operator numbers in pre-order starting at `O1`.
    pub fn new(name: impl Into<String>, query: impl Into<String>, mut root: PlanNode) -> Self {
        let mut next = 1;
        root.renumber(&mut next);
        Plan { name: name.into(), query: query.into(), root }
    }

    /// All operators in pre-order (i.e. ordered by operator number).
    pub fn operators(&self) -> Vec<&PlanNode> {
        let mut out = Vec::new();
        self.root.visit(&mut out);
        out
    }

    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.operators().len()
    }

    /// The operator with the given id, if any.
    pub fn operator(&self, id: OperatorId) -> Option<&PlanNode> {
        self.operators().into_iter().find(|n| n.id == id)
    }

    /// The leaf operators (scans), in operator-number order.
    pub fn leaves(&self) -> Vec<&PlanNode> {
        self.operators().into_iter().filter(|n| n.kind.is_leaf()).collect()
    }

    /// The distinct tables the plan scans.
    pub fn tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self.leaves().iter().filter_map(|n| n.table.clone()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The operator ids in the subtree rooted at `id` (including `id` itself).
    pub fn subtree_of(&self, id: OperatorId) -> Vec<OperatorId> {
        match self.operator(id) {
            Some(node) => {
                let mut nodes = Vec::new();
                node.visit(&mut nodes);
                nodes.into_iter().map(|n| n.id).collect()
            }
            None => Vec::new(),
        }
    }

    /// A structural fingerprint: two plans with the same operators, shapes, tables and
    /// indexes have equal fingerprints regardless of selectivities or cost estimates.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        self.root.fingerprint_into(&mut s);
        s
    }

    /// Renders the plan as an indented tree (EXPLAIN-style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        fn walk(node: &PlanNode, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            let target = match (&node.table, &node.index) {
                (Some(t), Some(i)) => format!(" on {t} using {i}"),
                (Some(t), None) => format!(" on {t}"),
                _ => String::new(),
            };
            out.push_str(&format!("{indent}{} {}{}\n", node.id, node.kind, target));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        walk(&self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, StorageKind, Table, Tablespace};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_tablespace(Tablespace {
            name: "ts".into(),
            volume: "V1".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        for (name, rows) in [("part", 200_000_u64), ("supplier", 10_000)] {
            c.add_table(Table {
                name: name.into(),
                tablespace: "ts".into(),
                row_count: rows,
                avg_row_bytes: 150,
                predicate_selectivity: 0.1,
                clustering: 0.9,
            })
            .unwrap();
        }
        c
    }

    fn small_plan() -> Plan {
        Plan::new(
            "test",
            "join part/supplier",
            PlanNode::sort(PlanNode::hash_join(
                0.5,
                PlanNode::seq_scan("part", 0.1),
                PlanNode::hash(PlanNode::seq_scan("supplier", 1.0)),
            )),
        )
    }

    #[test]
    fn preorder_numbering() {
        let plan = small_plan();
        let ids: Vec<u32> = plan.operators().iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(plan.operator_count(), 5);
        assert_eq!(plan.root.id, OperatorId(1));
        assert_eq!(plan.operator(OperatorId(3)).unwrap().kind, OperatorKind::SeqScan);
        assert!(plan.operator(OperatorId(99)).is_none());
        assert_eq!(OperatorId(7).to_string(), "O7");
    }

    #[test]
    fn leaves_and_tables() {
        let plan = small_plan();
        let leaves = plan.leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(plan.tables(), vec!["part", "supplier"]);
        assert!(leaves.iter().all(|n| n.kind.is_leaf()));
    }

    #[test]
    fn subtrees_hold_their_root_and_descendants() {
        let plan = small_plan();
        // Subtree of O4 (hash) contains O4 and O5 (the supplier scan).
        assert_eq!(plan.subtree_of(OperatorId(4)), vec![OperatorId(4), OperatorId(5)]);
        assert!(plan.subtree_of(OperatorId(50)).is_empty());
    }

    #[test]
    fn cardinalities_respond_to_data_properties() {
        let mut cat = catalog();
        let plan = small_plan();
        let scan_part = plan.operator(OperatorId(3)).unwrap();
        assert!((scan_part.output_rows(&cat) - 20_000.0).abs() < 1e-6);
        let join = plan.operator(OperatorId(2)).unwrap();
        let before = join.output_rows(&cat);
        // Triple the part table: the join output grows too.
        cat.apply_bulk_dml("part", 3.0, 0.1).unwrap();
        let after = join.output_rows(&cat);
        assert!(after > before * 2.5);
        // input_rows of a seq scan is the whole table regardless of selectivity.
        assert_eq!(scan_part.input_rows(&cat), 600_000.0);
    }

    #[test]
    fn snapshot_vs_live_cardinalities_diverge_after_dml() {
        let mut cat = catalog();
        let snap = cat.snapshot();
        cat.apply_bulk_dml("part", 5.0, 0.5).unwrap();
        let plan = small_plan();
        let scan = plan.operator(OperatorId(3)).unwrap();
        let estimated = scan.output_rows(&snap);
        let actual = scan.output_rows(&cat);
        assert!(actual >= estimated * 4.9, "estimated {estimated}, actual {actual}");
        assert!(estimated > 0.0);
    }

    #[test]
    fn fingerprint_ignores_selectivity_but_not_structure() {
        let a = small_plan();
        let mut b = small_plan();
        b.root.selectivity = 0.123;
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different access path -> different fingerprint.
        let c = Plan::new(
            "test2",
            "join part/supplier",
            PlanNode::sort(PlanNode::hash_join(
                0.5,
                PlanNode::index_scan("part", "part_pkey", 0.1),
                PlanNode::hash(PlanNode::seq_scan("supplier", 1.0)),
            )),
        );
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Different join order -> different fingerprint.
        let d = Plan::new(
            "test3",
            "join part/supplier",
            PlanNode::sort(PlanNode::hash_join(
                0.5,
                PlanNode::seq_scan("supplier", 1.0),
                PlanNode::hash(PlanNode::seq_scan("part", 0.1)),
            )),
        );
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn render_shows_operators_and_targets() {
        let text = small_plan().render();
        assert!(text.contains("O1 Sort"));
        assert!(text.contains("Seq Scan on part"));
        assert!(text.lines().count() >= 5);
        let indexed = Plan::new("x", "q", PlanNode::index_scan("part", "part_pkey", 0.01));
        assert!(indexed.render().contains("using part_pkey"));
    }

    #[test]
    fn operator_kind_properties() {
        assert!(OperatorKind::SeqScan.is_leaf());
        assert!(OperatorKind::IndexScan.is_leaf());
        assert!(!OperatorKind::HashJoin.is_leaf());
        assert_eq!(OperatorKind::SubPlanFilter.label(), "SubPlan Filter");
    }
}
