//! The simulated executor.
//!
//! Executing a plan produces exactly the monitoring data the paper's instrumented
//! PostgreSQL reported to the management tool: per-operator start/stop times and record
//! counts (estimated and actual), instance-level metrics (buffer hits, scans, locks),
//! and — because the executor's I/O rides on the SAN simulator's response times — a
//! faithful causal chain from SAN contention to operator slowdown.
//!
//! Timing semantics: an operator's **elapsed** time covers its whole subtree (children
//! run first, then the operator's own work), so when a leaf slows down every ancestor's
//! elapsed time grows with it — this is the "event propagation" that makes upstream
//! operators join the correlated-operator set in the paper's scenario 1. The
//! **self** time is the operator's own I/O + CPU + lock wait, which is what impact
//! analysis uses to attribute the slowdown to root causes.

use diads_monitor::{
    ComponentId, ComponentKind, Duration, MetricKey, MetricName, MetricStore, TimeRange, Timestamp,
};
use diads_san::workload::IoProfile;
use diads_san::{SanSimulator, VolumeLoad};

use crate::buffer::BufferCache;
use crate::catalog::{Catalog, StatsSnapshot};
use crate::config::DbConfig;
use crate::locks::LockManager;
use crate::plan::{OperatorId, OperatorKind, Plan, PlanNode};
use crate::{DbError, Result};

/// Per-operator observations from one plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorRunStats {
    /// Operator number.
    pub operator: OperatorId,
    /// Operator kind.
    pub kind: OperatorKind,
    /// Scanned table (leaf operators only).
    pub table: Option<String>,
    /// SAN volume the scanned table lives on (leaf operators only).
    pub volume: Option<String>,
    /// Absolute start time of the operator's subtree.
    pub start: Timestamp,
    /// Absolute stop time of the operator.
    pub stop: Timestamp,
    /// Elapsed (inclusive) running time in seconds.
    pub elapsed_secs: f64,
    /// Exclusive (self) running time in seconds.
    pub self_secs: f64,
    /// Portion of the self time spent on I/O.
    pub io_secs: f64,
    /// Portion of the self time spent on CPU.
    pub cpu_secs: f64,
    /// Portion of the self time spent waiting for locks.
    pub lock_wait_secs: f64,
    /// Actual output record count.
    pub actual_rows: f64,
    /// Optimizer-estimated output record count (from the planning-time snapshot).
    pub estimated_rows: f64,
    /// Physical page reads issued by the operator.
    pub physical_reads: f64,
    /// Pages served from the buffer cache.
    pub buffer_hits: f64,
}

/// Everything observed about one execution of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRunRecord {
    /// The query's name (e.g. `TPC-H Q2 report`).
    pub query: String,
    /// The executed plan's name.
    pub plan_name: String,
    /// The executed plan's structural fingerprint.
    pub plan_fingerprint: String,
    /// When execution started.
    pub start: Timestamp,
    /// When execution finished.
    pub end: Timestamp,
    /// Total elapsed seconds.
    pub elapsed_secs: f64,
    /// Per-operator observations, in operator-number order.
    pub operators: Vec<OperatorRunStats>,
    /// The I/O this run pushed onto each SAN volume (used to drive SAN metric recording).
    pub volume_loads: Vec<VolumeLoad>,
    /// Instance-level database metrics for this run.
    pub db_metrics: Vec<(MetricName, f64)>,
}

impl QueryRunRecord {
    /// The observation for one operator.
    pub fn operator(&self, id: OperatorId) -> Option<&OperatorRunStats> {
        self.operators.iter().find(|o| o.operator == id)
    }

    /// The run's time window.
    pub fn window(&self) -> TimeRange {
        TimeRange::new(self.start, self.end.plus(Duration::from_secs(1)))
    }

    /// Records the run's observations (operator metrics, instance metrics and a
    /// simple CPU-usage figure for the database server) into `store`.
    /// `Testbed::run_scenario` passes the scenario's store, once per run and
    /// before it records the SAN's view of the timeline.
    pub fn record_metrics(&self, store: &mut MetricStore, db_instance: &str, db_server: &str) {
        let at = self.end;
        for op in &self.operators {
            // One interning per operator; the four per-metric records are symbol-keyed.
            let comp = store.intern_component(&ComponentId::operator(op.operator.name()));
            let mut emit = |metric: &MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(metric));
                store.record_key(key, at, value);
            };
            emit(&MetricName::OperatorElapsedTime, op.elapsed_secs);
            emit(&MetricName::OperatorSelfTime, op.self_secs);
            emit(&MetricName::OperatorRecordCount, op.actual_rows);
            emit(&MetricName::OperatorEstimatedRecords, op.estimated_rows);
        }
        let instance =
            store.intern_component(&ComponentId::new(ComponentKind::DatabaseInstance, db_instance));
        let emit_instance = |store: &mut MetricStore, metric: &MetricName, value: f64| {
            let key = MetricKey::new(instance, store.intern_metric(metric));
            store.record_key(key, at, value);
        };
        for (metric, value) in &self.db_metrics {
            emit_instance(store, metric, *value);
        }
        emit_instance(store, &MetricName::PlanElapsedTime, self.elapsed_secs);
        // Server CPU while the query ran: the CPU share of the elapsed time.
        let cpu_secs: f64 = self.operators.iter().map(|o| o.cpu_secs).sum();
        let cpu_pct = (cpu_secs / self.elapsed_secs.max(1e-9) * 100.0).min(100.0);
        let server = store.intern_component(&ComponentId::server(db_server));
        let emit_server = |store: &mut MetricStore, metric: &MetricName, value: f64| {
            let key = MetricKey::new(server, store.intern_metric(metric));
            store.record_key(key, at, value);
        };
        emit_server(store, &MetricName::CpuUsagePercent, cpu_pct);
        emit_server(store, &MetricName::PhysicalMemoryPercent, 55.0);
    }
}

/// The context a plan executes in.
#[derive(Debug)]
pub struct ExecutionEnvironment<'a> {
    /// The live catalog (actual data properties).
    pub catalog: &'a Catalog,
    /// The statistics snapshot the plan was chosen with (estimated data properties).
    pub planned_stats: &'a StatsSnapshot,
    /// Configuration parameters.
    pub config: &'a DbConfig,
    /// Buffer-cache model.
    pub buffer: &'a BufferCache,
    /// Lock-contention model.
    pub locks: &'a LockManager,
    /// The SAN the database's volumes live on.
    pub san: &'a SanSimulator,
    /// The server the database instance runs on (for zoning checks / attribution).
    pub db_server: &'a str,
}

/// The simulated executor.
#[derive(Debug, Default)]
pub struct Executor;

struct NodeOutcome {
    elapsed: f64,
    stats: Vec<OperatorRunStats>,
}

impl Executor {
    /// Creates an executor.
    pub fn new() -> Self {
        Executor
    }

    /// Executes `plan` starting at `start` and returns the run record.
    ///
    /// # Errors
    /// Fails if a leaf operator references a table with no tablespace→volume mapping.
    pub fn execute(
        &self,
        plan: &Plan,
        env: &ExecutionEnvironment<'_>,
        start: Timestamp,
    ) -> Result<QueryRunRecord> {
        let competing: Vec<String> = plan.tables();

        // Pass 1: nominal execution at base latency to size the query's own I/O load.
        let nominal = self.run_tree(plan, env, start, &competing, &[])?;
        let nominal_secs: f64 = nominal.elapsed.max(1.0);
        let own_load = self.own_volume_loads(plan, env, &competing, start, nominal_secs);

        // Pass 2: final execution with the query's own load contributing to contention.
        let outcome = self.run_tree(plan, env, start, &competing, &own_load)?;
        let elapsed = outcome.elapsed.max(1.0);
        let own_load = self.own_volume_loads(plan, env, &competing, start, elapsed);

        let mut operators = outcome.stats;
        operators.sort_by_key(|o| o.operator);

        let db_metrics = self.instance_metrics(&operators, env, start);
        let end = start.plus(Duration::from_secs(elapsed.round() as u64));
        Ok(QueryRunRecord {
            query: plan.query.clone(),
            plan_name: plan.name.clone(),
            plan_fingerprint: plan.fingerprint(),
            start,
            end,
            elapsed_secs: elapsed,
            operators,
            volume_loads: own_load,
            db_metrics,
        })
    }

    /// Simulates the plan tree and returns per-operator stats plus total elapsed time.
    fn run_tree(
        &self,
        plan: &Plan,
        env: &ExecutionEnvironment<'_>,
        start: Timestamp,
        competing: &[String],
        own_load: &[VolumeLoad],
    ) -> Result<NodeOutcome> {
        let mut stats = Vec::new();
        let elapsed = self.run_node(&plan.root, env, start, competing, own_load, &mut stats)?;
        Ok(NodeOutcome { elapsed, stats })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_node(
        &self,
        node: &PlanNode,
        env: &ExecutionEnvironment<'_>,
        start: Timestamp,
        competing: &[String],
        own_load: &[VolumeLoad],
        out: &mut Vec<OperatorRunStats>,
    ) -> Result<f64> {
        // Children execute first (sequentially), then the node's own work.
        let mut cursor = start;
        let mut children_elapsed = 0.0;
        for child in &node.children {
            let e = self.run_node(child, env, cursor, competing, own_load, out)?;
            children_elapsed += e;
            cursor = cursor.plus(Duration::from_secs(e.round() as u64));
        }

        let actual_rows = node.output_rows(env.catalog);
        let estimated_rows = node.output_rows(env.planned_stats);
        let input_rows = node.input_rows(env.catalog);

        let (io_secs, physical_reads, buffer_hits, volume) = if node.kind.is_leaf() {
            let table = node.table.as_deref().unwrap_or_default();
            let volume = env
                .catalog
                .volume_of_table(table)
                .ok_or_else(|| DbError::InvalidPlan(format!("table {table} has no volume mapping")))?;
            let pages_touched = self.pages_touched(node, env);
            let physical = env.buffer.physical_reads(env.catalog, table, competing, pages_touched);
            let hits = (pages_touched - physical).max(0.0);
            let response = env.san.volume_response(&volume, start, own_load);
            let per_page_ms = match node.kind {
                // Sequential scans benefit from prefetch and larger transfers.
                OperatorKind::SeqScan => response.read_ms * 0.35,
                _ => response.read_ms,
            };
            (physical * per_page_ms / 1000.0, physical, hits, Some(volume))
        } else {
            (0.0, 0.0, 0.0, None)
        };

        let cpu_secs = self.cpu_secs(node, env, input_rows);
        let lock_wait_secs = match &node.table {
            Some(table) if node.kind.is_leaf() => env.locks.wait_secs(table, start),
            _ => 0.0,
        };

        let self_secs = io_secs + cpu_secs + lock_wait_secs;
        let elapsed = children_elapsed + self_secs;
        let stop = start.plus(Duration::from_secs(elapsed.round() as u64));

        out.push(OperatorRunStats {
            operator: node.id,
            kind: node.kind,
            table: node.table.clone(),
            volume,
            start,
            stop,
            elapsed_secs: elapsed,
            self_secs,
            io_secs,
            cpu_secs,
            lock_wait_secs,
            actual_rows,
            estimated_rows,
            physical_reads,
            buffer_hits,
        });
        Ok(elapsed)
    }

    /// Heap pages a leaf operator touches.
    fn pages_touched(&self, node: &PlanNode, env: &ExecutionEnvironment<'_>) -> f64 {
        let table = node.table.as_deref().unwrap_or_default();
        let Some(t) = env.catalog.table(table) else { return 0.0 };
        let pages = t.pages() as f64;
        match node.kind {
            OperatorKind::SeqScan => pages,
            OperatorKind::IndexScan => {
                let rows = node.output_rows(env.catalog).max(1.0);
                (rows * (1.0 - t.clustering) + rows / 50.0 * t.clustering).clamp(1.0, pages)
            }
            _ => 0.0,
        }
    }

    /// CPU seconds an operator spends processing its input.
    fn cpu_secs(&self, node: &PlanNode, env: &ExecutionEnvironment<'_>, input_rows: f64) -> f64 {
        let rate = env.config.executor_tuples_per_sec.max(1.0);
        let factor = match node.kind {
            OperatorKind::SeqScan | OperatorKind::IndexScan => 1.0,
            OperatorKind::Hash => 1.5,
            OperatorKind::HashJoin => 1.2,
            OperatorKind::NestedLoop => 2.0,
            OperatorKind::MergeJoin => 1.5,
            OperatorKind::Sort => (input_rows.max(2.0).log2() / 4.0).max(1.0),
            OperatorKind::Aggregate => 1.5,
            OperatorKind::Materialize => 0.5,
            OperatorKind::Limit => 0.05,
            OperatorKind::SubPlanFilter => 1.0,
        };
        input_rows * factor / rate
    }

    /// The I/O the query itself pushes onto each volume during the run.
    fn own_volume_loads(
        &self,
        plan: &Plan,
        env: &ExecutionEnvironment<'_>,
        competing: &[String],
        start: Timestamp,
        run_secs: f64,
    ) -> Vec<VolumeLoad> {
        use std::collections::BTreeMap;
        let mut per_volume: BTreeMap<String, (f64, f64)> = BTreeMap::new(); // (random pages, seq pages)
        for leaf in plan.leaves() {
            let table = leaf.table.as_deref().unwrap_or_default();
            let Some(volume) = env.catalog.volume_of_table(table) else { continue };
            let pages = self.pages_touched(leaf, env);
            let physical = env.buffer.physical_reads(env.catalog, table, competing, pages);
            let entry = per_volume.entry(volume).or_insert((0.0, 0.0));
            match leaf.kind {
                OperatorKind::SeqScan => entry.1 += physical,
                _ => entry.0 += physical,
            }
        }
        let window = TimeRange::with_duration(start, Duration::from_secs(run_secs.round().max(1.0) as u64));
        per_volume
            .into_iter()
            .map(|(volume, (random_pages, seq_pages))| {
                let total_pages = random_pages + seq_pages;
                let read_iops = total_pages / run_secs.max(1.0);
                // Report runs also dirty a small fraction of pages (hint bits, temp
                // bookkeeping), which is why the volumes see some write traffic.
                let write_iops = read_iops * 0.05;
                let seq_fraction = if total_pages > 0.0 { seq_pages / total_pages } else { 0.0 };
                VolumeLoad::new(
                    volume,
                    IoProfile {
                        read_iops,
                        write_iops,
                        read_kb: 8.0,
                        write_kb: 8.0,
                        sequential_fraction: seq_fraction,
                    },
                    window,
                )
            })
            .collect()
    }

    /// Instance-level database metrics for the run.
    fn instance_metrics(
        &self,
        operators: &[OperatorRunStats],
        env: &ExecutionEnvironment<'_>,
        start: Timestamp,
    ) -> Vec<(MetricName, f64)> {
        let physical: f64 = operators.iter().map(|o| o.physical_reads).sum();
        let hits: f64 = operators.iter().map(|o| o.buffer_hits).sum();
        let touched = physical + hits;
        let seq_scans = operators.iter().filter(|o| o.kind == OperatorKind::SeqScan).count() as f64;
        let index_scans = operators.iter().filter(|o| o.kind == OperatorKind::IndexScan).count() as f64;
        let random_ios: f64 =
            operators.iter().filter(|o| o.kind == OperatorKind::IndexScan).map(|o| o.physical_reads).sum();
        let lock_wait: f64 = operators.iter().map(|o| o.lock_wait_secs).sum();
        vec![
            (MetricName::BlocksRead, physical),
            (MetricName::BufferHits, hits),
            (MetricName::BufferHitRatio, if touched > 0.0 { hits / touched } else { 1.0 }),
            (MetricName::SequentialScans, seq_scans),
            (MetricName::IndexScans, index_scans),
            (MetricName::IndexReads, random_ios),
            (MetricName::IndexFetches, random_ios * 1.2),
            (MetricName::RandomIos, random_ios),
            (MetricName::LockWaitTime, lock_wait),
            (MetricName::LocksHeld, env.locks.locks_held(start) as f64),
            (MetricName::SpaceUsage, 0.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Index, StorageKind, Table, Tablespace};
    use crate::locks::LockContentionWindow;
    use diads_monitor::MetricStore;
    use diads_san::topology::paper_testbed;
    use diads_san::workload::{ExternalWorkload, IoProfile};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_tablespace(Tablespace {
            name: "ts_v1".into(),
            volume: "V1".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        c.add_tablespace(Tablespace {
            name: "ts_v2".into(),
            volume: "V2".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        c.add_table(Table {
            name: "partsupp".into(),
            tablespace: "ts_v1".into(),
            row_count: 8_000_000,
            avg_row_bytes: 144,
            predicate_selectivity: 0.05,
            clustering: 0.6,
        })
        .unwrap();
        c.add_table(Table {
            name: "part".into(),
            tablespace: "ts_v2".into(),
            row_count: 2_000_000,
            avg_row_bytes: 156,
            predicate_selectivity: 0.01,
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

    fn plan() -> Plan {
        Plan::new(
            "join",
            "partsupp x part",
            PlanNode::sort(PlanNode::hash_join(
                0.3,
                PlanNode::seq_scan("partsupp", 0.05),
                PlanNode::hash(PlanNode::index_scan("part", "part_pkey", 0.01)),
            )),
        )
    }

    fn run(san: &SanSimulator, catalog: &Catalog, locks: &LockManager, start: Timestamp) -> QueryRunRecord {
        let config = DbConfig::default();
        let buffer = BufferCache::new(&config);
        let snapshot = catalog.snapshot();
        let env = ExecutionEnvironment {
            catalog,
            planned_stats: &snapshot,
            config: &config,
            buffer: &buffer,
            locks,
            san,
            db_server: "db-server",
        };
        Executor::new().execute(&plan(), &env, start).unwrap()
    }

    #[test]
    fn execution_produces_per_operator_stats() {
        let san = SanSimulator::new(paper_testbed());
        let cat = catalog();
        let record = run(&san, &cat, &LockManager::new(), Timestamp::new(1_000));
        assert_eq!(record.operators.len(), 5);
        assert!(record.elapsed_secs > 0.0);
        assert_eq!(record.start, Timestamp::new(1_000));
        assert!(record.end > record.start);
        // Root elapsed equals the run elapsed.
        let root = record.operator(OperatorId(1)).unwrap();
        assert!((root.elapsed_secs - record.elapsed_secs).abs() < 1e-9);
        // Leaves carry their volume.
        let partsupp_scan = record.operators.iter().find(|o| o.table.as_deref() == Some("partsupp")).unwrap();
        assert_eq!(partsupp_scan.volume.as_deref(), Some("V1"));
        assert!(partsupp_scan.io_secs > 0.0);
        assert!(partsupp_scan.physical_reads > 0.0);
        // Elapsed of a parent includes its children.
        let join = record.operator(OperatorId(2)).unwrap();
        assert!(join.elapsed_secs >= partsupp_scan.elapsed_secs);
        assert!(join.self_secs <= join.elapsed_secs);
        // The run pushes I/O onto both volumes.
        assert_eq!(record.volume_loads.len(), 2);
        assert!(record.volume_loads.iter().all(|l| l.profile.read_iops > 0.0));
    }

    #[test]
    fn contention_on_v1_slows_only_v1_leaves() {
        let cat = catalog();
        let quiet = SanSimulator::new(paper_testbed());
        let baseline = run(&quiet, &cat, &LockManager::new(), Timestamp::new(10_000));

        let mut contended = SanSimulator::new(paper_testbed());
        contended.topology_mut().create_volume(Timestamp::new(0), "Vprime", "P1", 50).unwrap();
        contended
            .add_workload(ExternalWorkload::steady(
                "etl",
                "app-server",
                "Vprime",
                IoProfile::oltp(260.0, 130.0),
                TimeRange::new(Timestamp::new(0), Timestamp::new(1_000_000)),
            ))
            .unwrap();
        let slow = run(&contended, &cat, &LockManager::new(), Timestamp::new(10_000));

        assert!(
            slow.elapsed_secs > baseline.elapsed_secs * 1.5,
            "{} vs {}",
            slow.elapsed_secs,
            baseline.elapsed_secs
        );
        let b_v1 = baseline.operators.iter().find(|o| o.volume.as_deref() == Some("V1")).unwrap();
        let s_v1 = slow.operators.iter().find(|o| o.volume.as_deref() == Some("V1")).unwrap();
        assert!(s_v1.self_secs > b_v1.self_secs * 1.5);
        let b_v2 = baseline.operators.iter().find(|o| o.volume.as_deref() == Some("V2")).unwrap();
        let s_v2 = slow.operators.iter().find(|o| o.volume.as_deref() == Some("V2")).unwrap();
        assert!(s_v2.self_secs < b_v2.self_secs * 1.3, "{} vs {}", s_v2.self_secs, b_v2.self_secs);
        // Record counts do not change: the data did not change.
        assert!((s_v1.actual_rows - b_v1.actual_rows).abs() < 1e-6);
    }

    #[test]
    fn data_property_change_changes_record_counts_and_estimates_diverge() {
        let san = SanSimulator::new(paper_testbed());
        let mut cat = catalog();
        let before = run(&san, &cat, &LockManager::new(), Timestamp::new(1_000));
        cat.apply_bulk_dml("partsupp", 2.5, 0.2).unwrap();
        let after = run(&san, &cat, &LockManager::new(), Timestamp::new(50_000));
        let b = before.operators.iter().find(|o| o.table.as_deref() == Some("partsupp")).unwrap();
        let a = after.operators.iter().find(|o| o.table.as_deref() == Some("partsupp")).unwrap();
        assert!(a.actual_rows > b.actual_rows * 2.0);
        // The estimate in `after` is taken from the *fresh* snapshot in this test
        // setup, so compare actual growth instead: runtime grows with the data.
        assert!(after.elapsed_secs > before.elapsed_secs);
    }

    #[test]
    fn lock_contention_adds_wait_without_io() {
        let san = SanSimulator::new(paper_testbed());
        let cat = catalog();
        let mut locks = LockManager::new();
        locks.add_contention(LockContentionWindow {
            table: "partsupp".into(),
            window: TimeRange::new(Timestamp::new(0), Timestamp::new(1_000_000)),
            wait_secs_per_scan: 120.0,
        });
        let baseline = run(&san, &cat, &LockManager::new(), Timestamp::new(1_000));
        let locked = run(&san, &cat, &locks, Timestamp::new(1_000));
        assert!(locked.elapsed_secs > baseline.elapsed_secs + 100.0);
        let op = locked.operators.iter().find(|o| o.table.as_deref() == Some("partsupp")).unwrap();
        assert_eq!(op.lock_wait_secs, 120.0);
        let lock_metric = locked.db_metrics.iter().find(|(m, _)| *m == MetricName::LockWaitTime).unwrap();
        assert!(lock_metric.1 >= 120.0);
    }

    #[test]
    fn missing_volume_mapping_is_an_error() {
        let san = SanSimulator::new(paper_testbed());
        let mut cat = Catalog::new();
        cat.add_tablespace(Tablespace {
            name: "ts".into(),
            volume: "V1".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        // A catalog whose table points at a tablespace we then cannot resolve: build a
        // plan over a table that simply is not in the catalog.
        let orphan_plan = Plan::new("orphan", "q", PlanNode::seq_scan("ghost", 0.5));
        let config = DbConfig::default();
        let buffer = BufferCache::new(&config);
        let snapshot = cat.snapshot();
        let locks = LockManager::new();
        let env = ExecutionEnvironment {
            catalog: &cat,
            planned_stats: &snapshot,
            config: &config,
            buffer: &buffer,
            locks: &locks,
            san: &san,
            db_server: "db-server",
        };
        assert!(Executor::new().execute(&orphan_plan, &env, Timestamp::new(0)).is_err());
    }

    #[test]
    fn record_metrics_lands_in_the_store() {
        let san = SanSimulator::new(paper_testbed());
        let cat = catalog();
        let record = run(&san, &cat, &LockManager::new(), Timestamp::new(1_000));
        let mut store = MetricStore::new();
        record.record_metrics(&mut store, "reports-db", "db-server");
        let op1 = ComponentId::operator("O1");
        assert!(store.series(&op1, &MetricName::OperatorElapsedTime).is_some());
        assert!(store.series(&op1, &MetricName::OperatorRecordCount).is_some());
        let instance = ComponentId::new(ComponentKind::DatabaseInstance, "reports-db");
        assert!(store.series(&instance, &MetricName::PlanElapsedTime).is_some());
        assert!(store.series(&instance, &MetricName::BufferHitRatio).is_some());
        let server = ComponentId::server("db-server");
        let cpu = store.series(&server, &MetricName::CpuUsagePercent).unwrap().latest().unwrap().value;
        assert!((0.0..=100.0).contains(&cpu));
    }

    #[test]
    fn window_covers_the_run() {
        let san = SanSimulator::new(paper_testbed());
        let cat = catalog();
        let record = run(&san, &cat, &LockManager::new(), Timestamp::new(1_000));
        let w = record.window();
        assert!(w.contains(record.start));
        assert!(w.contains(record.end));
    }
}
