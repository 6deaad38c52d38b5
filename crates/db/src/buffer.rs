//! Buffer-cache model.
//!
//! The executor does not simulate individual pages; it needs a per-table *hit ratio*
//! that behaves sensibly: small, frequently-touched tables stay resident, huge tables
//! mostly miss, and shrinking `shared_buffers` (or growing a table via bulk DML) lowers
//! the ratio. DIADS sees the result through the `bufferHits` / `bufferHitRatio`
//! database metrics, which a database-only diagnosis tool would be tempted to blame
//! ("suboptimal buffer pool setting", §5).

use crate::catalog::Catalog;
use crate::config::DbConfig;

/// A simple working-set buffer-cache model.
#[derive(Debug, Clone)]
pub struct BufferCache {
    capacity_pages: f64,
}

impl BufferCache {
    /// Creates a cache sized from the configuration's `shared_buffers`.
    pub fn new(config: &DbConfig) -> Self {
        BufferCache { capacity_pages: (config.shared_buffers_mb as f64) * 1024.0 * 1024.0 / 8192.0 }
    }

    /// Hit ratio for scans of `table`, given the total working set of the query's
    /// tables (all competing for the same buffers).
    ///
    /// The model gives each table a share of the cache proportional to the inverse of
    /// its size (small hot tables win), then the hit ratio is `min(1, share / pages)`,
    /// floored at a small constant because even cold scans reuse some pages.
    pub(crate) fn hit_ratio(&self, catalog: &Catalog, table: &str, competing_tables: &[String]) -> f64 {
        let Some(t) = catalog.table(table) else { return 0.0 };
        let pages = t.pages() as f64;
        // Weight = 1/size, normalised across the competing set (including this table).
        let mut weights = 0.0;
        for name in competing_tables {
            if let Some(other) = catalog.table(name) {
                weights += 1.0 / (other.pages() as f64);
            }
        }
        if !competing_tables.iter().any(|n| n == table) {
            weights += 1.0 / pages;
        }
        if weights <= 0.0 {
            return 0.0;
        }
        let share = self.capacity_pages * (1.0 / pages) / weights;
        (share / pages).clamp(0.05, 0.99)
    }

    /// Physical pages read for a scan that touches `pages_touched` pages of `table`.
    pub fn physical_reads(
        &self,
        catalog: &Catalog,
        table: &str,
        competing_tables: &[String],
        pages_touched: f64,
    ) -> f64 {
        let hit = self.hit_ratio(catalog, table, competing_tables);
        (pages_touched * (1.0 - hit)).max(0.0)
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
        for (name, rows, width) in
            [("nation", 25_u64, 120_u32), ("lineitem", 60_000_000, 140), ("part", 2_000_000, 156)]
        {
            c.add_table(Table {
                name: name.into(),
                tablespace: "ts".into(),
                row_count: rows,
                avg_row_bytes: width,
                predicate_selectivity: 0.1,
                clustering: 0.9,
            })
            .unwrap();
        }
        c
    }

    #[test]
    fn small_tables_stay_cached() {
        let cat = catalog();
        let cache = BufferCache::new(&DbConfig::default());
        let tables = vec!["nation".to_string(), "lineitem".to_string(), "part".to_string()];
        let nation = cache.hit_ratio(&cat, "nation", &tables);
        let lineitem = cache.hit_ratio(&cat, "lineitem", &tables);
        assert!(nation > 0.9, "nation hit ratio {nation}");
        assert!(lineitem < 0.3, "lineitem hit ratio {lineitem}");
        assert!(nation > lineitem);
    }

    #[test]
    fn smaller_shared_buffers_lower_hit_ratios() {
        let cat = catalog();
        let tables = vec!["part".to_string()];
        let big = BufferCache::new(&DbConfig { shared_buffers_mb: 8192, ..DbConfig::default() });
        let small = BufferCache::new(&DbConfig { shared_buffers_mb: 64, ..DbConfig::default() });
        assert!(big.hit_ratio(&cat, "part", &tables) > small.hit_ratio(&cat, "part", &tables));
        assert!(big.capacity_pages > small.capacity_pages);
    }

    #[test]
    fn growing_a_table_lowers_its_hit_ratio() {
        let mut cat = catalog();
        let cache = BufferCache::new(&DbConfig::default());
        let tables = vec!["part".to_string()];
        let before = cache.hit_ratio(&cat, "part", &tables);
        cat.apply_bulk_dml("part", 20.0, 0.1).unwrap();
        let after = cache.hit_ratio(&cat, "part", &tables);
        assert!(after < before);
    }

    #[test]
    fn physical_reads_respect_hit_ratio() {
        let cat = catalog();
        let cache = BufferCache::new(&DbConfig::default());
        let tables = vec!["nation".to_string()];
        let reads = cache.physical_reads(&cat, "nation", &tables, 100.0);
        assert!(reads < 15.0, "mostly cached: {reads}");
        assert_eq!(cache.physical_reads(&cat, "missing", &tables, 100.0), 100.0);
    }

    #[test]
    fn unknown_table_has_zero_hit_ratio() {
        let cat = catalog();
        let cache = BufferCache::new(&DbConfig::default());
        assert_eq!(cache.hit_ratio(&cat, "missing", &[]), 0.0);
    }

    #[test]
    fn table_not_in_competing_set_is_still_accounted() {
        let cat = catalog();
        let cache = BufferCache::new(&DbConfig::default());
        let ratio = cache.hit_ratio(&cat, "nation", &["part".to_string()]);
        assert!(ratio > 0.5);
    }
}
