//! Annotated Plan Graphs (Section 3 of the paper).
//!
//! An APG captures "a comprehensive end-to-end mapping of the logical database
//! operators of the query plan to the physical disk details where the actual data
//! resides, and everything in between": the plan tree, the tablespace→volume mapping,
//! the SAN configuration, the *inner* dependency path of every operator (components
//! whose performance affects it directly) and the *outer* dependency path (components
//! that affect it indirectly through shared physical resources), plus annotations — the
//! monitoring data of every dependency component sliced to the operator's `[tb, te]`
//! execution window.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use diads_db::{Catalog, OperatorId, Plan, PlanNode, QueryRunRecord};
use diads_monitor::{ComponentId, ComponentKind, MetricName, MetricStore, TimeRange};
use diads_san::workload::ExternalWorkload;
use diads_san::{path as san_path, SanTopology};

/// The Annotated Plan Graph of one query plan over one testbed configuration.
#[derive(Debug, Clone)]
pub struct Apg {
    /// The query the plan answers.
    pub query: String,
    /// The plan itself (operators `O1..On`).
    pub plan: Plan,
    /// The database server the plan runs on.
    pub db_server: String,
    /// Inner dependency path of each operator (equal paths share one allocation).
    inner: BTreeMap<OperatorId, Arc<[ComponentId]>>,
    /// Outer dependency path of each operator (equal paths share one allocation).
    outer: BTreeMap<OperatorId, Arc<[ComponentId]>>,
    /// Volume each leaf operator reads (derived through the tablespace mapping).
    leaf_volumes: BTreeMap<OperatorId, String>,
}

impl Apg {
    /// Builds the APG for a plan: every leaf operator is mapped through its table and
    /// tablespace to a SAN volume, the volume's I/O path becomes the leaf's inner
    /// dependency path, shared-disk volumes and external workloads become its outer
    /// path, and non-leaf operators inherit the union of their descendants' paths (plus
    /// the database server and instance, which every operator depends on).
    ///
    /// Path order is first occurrence. A leaf's inner path is the database instance
    /// and server, its table's tablespace, then its volume's SAN path; a non-leaf's is
    /// the database components followed by its descendant leaves' inner paths in plan
    /// pre-order (its outer path likewise, without the database components). Leaves
    /// reading the same table share their paths, as do operators whose paths come out
    /// equal (e.g. a unary chain), and every distinct path clones each of its entries
    /// exactly once.
    pub fn build(
        query: impl Into<String>,
        plan: &Plan,
        catalog: &Catalog,
        topology: &SanTopology,
        workloads: &[ExternalWorkload],
        db_server: &str,
        db_instance: &str,
    ) -> Apg {
        // Unions run over dense local indices into `components`; identities are
        // cloned only when the distinct paths are materialised at the end.
        let mut index: BTreeMap<ComponentId, usize> = BTreeMap::new();
        let mut local = |component: ComponentId| {
            let next = index.len();
            *index.entry(component).or_insert(next)
        };
        let db = [
            local(ComponentId::new(ComponentKind::DatabaseInstance, db_instance)),
            local(ComponentId::server(db_server)),
        ];

        let mut leaves = Vec::new();
        let mut spans = Vec::new();
        leaf_spans(&plan.root, &mut leaves, &mut spans);

        // The raw paths and the volume of every table a leaf reads.
        let mut tables: BTreeMap<&str, LeafPaths> = BTreeMap::new();
        for leaf in &leaves {
            let table = leaf.table.as_deref().unwrap_or_default();
            tables.entry(table).or_insert_with(|| {
                let mut inner = db.to_vec();
                if let Some(t) = catalog.table(table) {
                    inner.push(local(ComponentId::tablespace(t.tablespace.clone())));
                }
                let mut outer = Vec::new();
                let volume = catalog.volume_of_table(table);
                if let Some(volume) = &volume {
                    inner.extend(
                        san_path::inner_path(topology, db_server, volume).into_iter().map(&mut local),
                    );
                    outer.extend(
                        san_path::outer_path(topology, workloads, volume).into_iter().map(&mut local),
                    );
                }
                LeafPaths { inner, outer, volume }
            });
        }

        // `local` numbered components 0, 1, 2, … as they first appeared.
        let mut components: Vec<(usize, ComponentId)> = index.into_iter().map(|(c, i)| (i, c)).collect();
        components.sort_unstable_by_key(|&(i, _)| i);
        let mut seen = vec![false; components.len()];
        for paths in tables.values_mut() {
            paths.inner = union(&mut seen, [paths.inner.as_slice()]);
            paths.outer = union(&mut seen, [paths.outer.as_slice()]);
        }
        let leaf_paths: Vec<&LeafPaths> =
            leaves.iter().map(|leaf| &tables[leaf.table.as_deref().unwrap_or_default()]).collect();

        let mut distinct: HashMap<Vec<usize>, Arc<[ComponentId]>> = HashMap::new();
        let mut materialise = |path: Vec<usize>| {
            Arc::clone(
                distinct
                    .entry(path)
                    .or_insert_with_key(|path| path.iter().map(|&i| components[i].1.clone()).collect()),
            )
        };
        let mut inner = BTreeMap::new();
        let mut outer = BTreeMap::new();
        let mut leaf_volumes = BTreeMap::new();
        for (op, under) in spans {
            let (inner_path, outer_path) = if op.kind.is_leaf() {
                let paths = &tables[op.table.as_deref().unwrap_or_default()];
                if let Some(volume) = &paths.volume {
                    leaf_volumes.insert(op.id, volume.clone());
                }
                (paths.inner.clone(), paths.outer.clone())
            } else {
                let descendants = &leaf_paths[under];
                (
                    union(
                        &mut seen,
                        std::iter::once(&db[..]).chain(descendants.iter().map(|p| p.inner.as_slice())),
                    ),
                    union(&mut seen, descendants.iter().map(|p| p.outer.as_slice())),
                )
            };
            inner.insert(op.id, materialise(inner_path));
            outer.insert(op.id, materialise(outer_path));
        }

        Apg {
            query: query.into(),
            plan: plan.clone(),
            db_server: db_server.to_string(),
            inner,
            outer,
            leaf_volumes,
        }
    }

    /// The inner dependency path of an operator (empty for unknown operators).
    pub fn inner_path(&self, op: OperatorId) -> &[ComponentId] {
        self.inner.get(&op).map_or(&[], |path| path)
    }

    /// The outer dependency path of an operator (empty for unknown operators).
    pub fn outer_path(&self, op: OperatorId) -> &[ComponentId] {
        self.outer.get(&op).map_or(&[], |path| path)
    }

    /// The volume a leaf operator reads, if it is a leaf with a mapped table.
    pub fn volume_of(&self, op: OperatorId) -> Option<&str> {
        self.leaf_volumes.get(&op).map(|s| s.as_str())
    }

    /// The leaf operators that read the given volume.
    pub fn leaves_on_volume(&self, volume: &str) -> Vec<OperatorId> {
        self.leaf_volumes.iter().filter(|(_, v)| v.as_str() == volume).map(|(op, _)| *op).collect()
    }

    /// Every distinct volume read by a leaf operator of this plan, sorted. This is the
    /// re-drill fallback for module SD: under a plan change there are no correlated
    /// operators to narrow the volume set, so symptom extraction considers every
    /// volume the *new* plan touches.
    pub fn leaf_volume_names(&self) -> BTreeSet<String> {
        self.leaf_volumes.values().cloned().collect()
    }

    /// Every distinct component appearing on the inner dependency path of any of the
    /// given operators (this is the search space of module DA).
    pub fn components_on_paths(&self, operators: &[OperatorId]) -> BTreeSet<ComponentId> {
        let mut out = BTreeSet::new();
        for op in operators {
            out.extend(self.inner_path(*op).iter().cloned());
            out.extend(self.outer_path(*op).iter().cloned());
        }
        out
    }

    /// Every distinct component appearing anywhere in the APG.
    pub fn all_components(&self) -> BTreeSet<ComponentId> {
        let ops: Vec<OperatorId> = self.plan.operators().iter().map(|o| o.id).collect();
        self.components_on_paths(&ops)
    }

    /// The operators whose inner dependency path contains the given component.
    pub fn operators_depending_on(&self, component: &ComponentId) -> Vec<OperatorId> {
        self.plan
            .operators()
            .iter()
            .map(|o| o.id)
            .filter(|op| self.inner_path(*op).contains(component))
            .collect()
    }

    /// The annotation of one operator for one run: the values of every metric of every
    /// component on the operator's inner dependency path, restricted to the operator's
    /// `[tb, te]` window in that run.
    pub fn annotate(
        &self,
        store: &MetricStore,
        run: &QueryRunRecord,
        op: OperatorId,
    ) -> Vec<(ComponentId, MetricName, Vec<f64>)> {
        let Some(op_stats) = run.operator(op) else { return Vec::new() };
        // The window is the operator's start..stop, padded by a minute on each side so
        // coarse 5-minute samples overlapping the run are included.
        let window = TimeRange::new(
            op_stats.start.minus(diads_monitor::Duration::from_mins(5)),
            op_stats.stop.plus(diads_monitor::Duration::from_mins(5)),
        );
        let mut out = Vec::new();
        for component in self.inner_path(op) {
            // Walk the component's series by interned key: no identity clones until a
            // non-empty annotation is actually produced.
            let Some(sym) = store.interner().component_sym(component) else { continue };
            for key in store.keys_of(sym) {
                let points = store.points_in_by_key(key, window);
                if !points.is_empty() {
                    let values = points.iter().map(|p| p.value).collect();
                    out.push((component.clone(), store.resolve(key).1.clone(), values));
                }
            }
        }
        out
    }

    /// Renders the APG as an indented text tree: the plan with, under each leaf, the SAN
    /// path down to the physical disks (the text equivalent of Figure 1 / Figure 6).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Annotated Plan Graph for {} (server {})\n", self.query, self.db_server));
        self.render_node(&self.plan.root, 0, &mut out);
        out
    }

    fn render_node(&self, node: &diads_db::PlanNode, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let target = match (&node.table, &node.index) {
            (Some(t), Some(i)) => format!(" on {t} using {i}"),
            (Some(t), None) => format!(" on {t}"),
            _ => String::new(),
        };
        out.push_str(&format!("{indent}{} {}{}\n", node.id, node.kind, target));
        if node.kind.is_leaf() {
            let storage: Vec<String> = self
                .inner_path(node.id)
                .iter()
                .filter(|c| {
                    matches!(
                        c.kind,
                        ComponentKind::StorageVolume | ComponentKind::StoragePool | ComponentKind::Disk
                    )
                })
                .map(|c| c.to_string())
                .collect();
            if !storage.is_empty() {
                out.push_str(&format!("{indent}    -> {}\n", storage.join(" -> ")));
            }
            let outer: Vec<String> = self.outer_path(node.id).iter().map(|c| c.to_string()).collect();
            if !outer.is_empty() {
                out.push_str(&format!("{indent}    ~~ outer: {}\n", outer.join(", ")));
            }
        }
        for child in &node.children {
            self.render_node(child, depth + 1, out);
        }
    }
}

/// A leaf's dependency paths over `Apg::build`'s local component indices, and the
/// volume its table lives on.
struct LeafPaths {
    inner: Vec<usize>,
    outer: Vec<usize>,
    volume: Option<String>,
}

/// Visits `node`'s subtree in pre-order, appending its leaf operators to `leaves`
/// and every operator, with the range of `leaves` its subtree covers, to `spans`.
fn leaf_spans<'p>(
    node: &'p PlanNode,
    leaves: &mut Vec<&'p PlanNode>,
    spans: &mut Vec<(&'p PlanNode, Range<usize>)>,
) {
    let at = spans.len();
    spans.push((node, leaves.len()..leaves.len()));
    if node.kind.is_leaf() {
        leaves.push(node);
    }
    for child in &node.children {
        leaf_spans(child, leaves, spans);
    }
    spans[at].1.end = leaves.len();
}

/// The first-occurrence union of `parts`' local component indices. `seen` must be
/// all `false` on entry and is left that way.
fn union<'a>(seen: &mut [bool], parts: impl IntoIterator<Item = &'a [usize]>) -> Vec<usize> {
    let mut out = Vec::new();
    for &i in parts.into_iter().flatten() {
        if !std::mem::replace(&mut seen[i], true) {
            out.push(i);
        }
    }
    for &i in &out {
        seen[i] = false;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_monitor::{TimeRange, Timestamp};
    use diads_san::topology::paper_testbed;
    use diads_san::workload::IoProfile;
    use diads_workload::queries::q2_paper_plan;
    use diads_workload::{tpch_catalog, TpchLayout};

    fn apg() -> Apg {
        let catalog = tpch_catalog(1.0, &TpchLayout::paper_default());
        let plan = q2_paper_plan(&catalog);
        let topology = paper_testbed();
        let workloads = vec![ExternalWorkload::steady(
            "archiver",
            "app-server",
            "V3",
            IoProfile::oltp(20.0, 20.0),
            TimeRange::new(Timestamp::new(0), Timestamp::new(1_000_000)),
        )];
        Apg::build("TPC-H Q2", &plan, &catalog, &topology, &workloads, "db-server", "reports-db")
    }

    #[test]
    fn leaf_paths_follow_figure1() {
        let apg = apg();
        // O8 is the partsupp scan on V1: its inner path reaches pool P1 and disks ds-01..04.
        let o8 = OperatorId(8);
        assert_eq!(apg.volume_of(o8), Some("V1"));
        let path = apg.inner_path(o8);
        assert!(path.contains(&ComponentId::volume("V1")));
        assert!(path.contains(&ComponentId::pool("P1")));
        assert!(path.contains(&ComponentId::disk("ds-01")));
        assert!(path.contains(&ComponentId::server("db-server")));
        assert!(path.contains(&ComponentId::new(ComponentKind::StorageSubsystem, "DS6000")));
        assert!(!path.contains(&ComponentId::volume("V2")));
        // The part index scan reads V2 in pool P2 with disks ds-05..ds-10.
        let part_leaf =
            apg.plan.leaves().into_iter().find(|n| n.table.as_deref() == Some("part")).unwrap().id;
        assert_eq!(apg.volume_of(part_leaf), Some("V2"));
        assert!(apg.inner_path(part_leaf).contains(&ComponentId::disk("ds-07")));
        // V2's outer path includes V3/V4 and the external workload on V3.
        let outer = apg.outer_path(part_leaf);
        assert!(outer.contains(&ComponentId::volume("V3")));
        assert!(outer.contains(&ComponentId::volume("V4")));
        assert!(outer.contains(&ComponentId::external_workload("archiver")));
        // V1 leaves have an empty outer path in the unfaulted testbed.
        assert!(apg.outer_path(o8).is_empty());
    }

    #[test]
    fn leaves_on_volume_match_the_paper_split() {
        let apg = apg();
        let v1: Vec<u32> = apg.leaves_on_volume("V1").iter().map(|o| o.0).collect();
        assert_eq!(v1, vec![8, 22]);
        assert_eq!(apg.leaves_on_volume("V2").len(), 7);
        assert!(apg.leaves_on_volume("V9").is_empty());
    }

    #[test]
    fn intermediate_operators_inherit_descendant_paths() {
        let apg = apg();
        // The root depends on everything; the subquery aggregate (O17) depends on V1
        // (via O22) and V2 (via its other scans).
        let root_path = apg.inner_path(OperatorId(1));
        assert!(root_path.contains(&ComponentId::volume("V1")));
        assert!(root_path.contains(&ComponentId::volume("V2")));
        let o17 = apg.inner_path(OperatorId(17));
        assert!(o17.contains(&ComponentId::volume("V1")));
        // O9 (hash over the part index scan) depends on V2 but not V1.
        let o9 = apg.inner_path(OperatorId(9));
        assert!(o9.contains(&ComponentId::volume("V2")));
        assert!(!o9.contains(&ComponentId::volume("V1")));
    }

    #[test]
    fn operators_depending_on_a_component() {
        let apg = apg();
        let on_v1 = apg.operators_depending_on(&ComponentId::volume("V1"));
        assert!(on_v1.contains(&OperatorId(8)));
        assert!(on_v1.contains(&OperatorId(22)));
        assert!(on_v1.contains(&OperatorId(1)));
        assert!(!on_v1.contains(&OperatorId(9)));
        // Every operator depends on the database server.
        assert_eq!(apg.operators_depending_on(&ComponentId::server("db-server")).len(), 25);
    }

    #[test]
    fn components_on_paths_is_the_da_search_space() {
        let apg = apg();
        let space = apg.components_on_paths(&[OperatorId(8)]);
        assert!(space.contains(&ComponentId::volume("V1")));
        assert!(!space.contains(&ComponentId::volume("V2")));
        let everything = apg.all_components();
        assert!(everything.contains(&ComponentId::volume("V2")));
        assert!(everything.len() > space.len());
    }

    #[test]
    fn render_contains_plan_and_storage_path() {
        let apg = apg();
        let text = apg.render();
        assert!(text.contains("O1 Limit"));
        assert!(text.contains("Seq Scan on partsupp"));
        assert!(text.contains("volume:V1"));
        assert!(text.contains("disk:ds-05"));
        assert!(text.contains("outer:"));
    }
}
