//! Database configuration parameters that influence plan selection and execution.
//!
//! Module PD's plan-change analysis considers "changes in configuration parameters used
//! during plan selection" as one cause of a plan change; the fault injector can flip
//! any of these between the satisfactory and unsatisfactory periods.

/// Planner and executor configuration, modelled after the PostgreSQL parameters the
/// paper's testbed would have exposed.
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// Memory available to each sort/hash node before spilling (KB).
    pub work_mem_kb: u64,
    /// Shared buffer pool size (MB); drives the buffer-cache hit model.
    pub shared_buffers_mb: u64,
    /// Planner's assumption about total cache available to one query (MB).
    pub effective_cache_size_mb: u64,
    /// Planner cost of a sequentially-fetched page.
    pub seq_page_cost: f64,
    /// Planner cost of a randomly-fetched page.
    pub random_page_cost: f64,
    /// Planner cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// Planner cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// Planner cost of evaluating one operator/function.
    pub cpu_operator_cost: f64,
    /// Whether the planner may choose index scans.
    pub enable_indexscan: bool,
    /// Whether the planner may choose hash joins.
    pub enable_hashjoin: bool,
    /// Whether the planner may choose nested-loop joins.
    pub enable_nestloop: bool,
    /// CPU tuple-processing rate of the executor (tuples per second per core) — used to
    /// convert abstract CPU costs into simulated seconds.
    pub executor_tuples_per_sec: f64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            work_mem_kb: 4 * 1024,
            shared_buffers_mb: 2048,
            effective_cache_size_mb: 8192,
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            enable_indexscan: true,
            enable_hashjoin: true,
            enable_nestloop: true,
            executor_tuples_per_sec: 2_000_000.0,
        }
    }
}

impl DbConfig {
    /// A configuration tuned like the paper's report-generation testbed.
    pub fn paper_default() -> Self {
        DbConfig::default()
    }

    /// Returns a copy with a different `random_page_cost` (a classic mis-tuning that
    /// flips plans between index and sequential scans).
    pub fn with_random_page_cost(mut self, value: f64) -> Self {
        self.random_page_cost = value;
        self
    }

    /// Returns a copy with a different `work_mem_kb`.
    pub fn with_work_mem_kb(mut self, value: u64) -> Self {
        self.work_mem_kb = value;
        self
    }

    /// Returns a copy with index scans enabled or disabled.
    pub fn with_enable_indexscan(mut self, value: bool) -> Self {
        self.enable_indexscan = value;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_postgres_like() {
        let c = DbConfig::default();
        assert_eq!(c.seq_page_cost, 1.0);
        assert_eq!(c.random_page_cost, 4.0);
        assert!(c.enable_indexscan && c.enable_hashjoin && c.enable_nestloop);
        assert_eq!(DbConfig::paper_default(), c);
    }

    #[test]
    fn builders_change_one_parameter() {
        let c = DbConfig::default().with_random_page_cost(20.0);
        assert_eq!(c.random_page_cost, 20.0);
        assert_eq!(c.seq_page_cost, 1.0);
        let c = DbConfig::default().with_work_mem_kb(64);
        assert_eq!(c.work_mem_kb, 64);
        let c = DbConfig::default().with_enable_indexscan(false);
        assert!(!c.enable_indexscan);
    }
}
