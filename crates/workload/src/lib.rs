//! # diads-workload
//!
//! The workload layer of the DIADS reproduction (*"Why Did My Query Slow Down?"*,
//! CIDR 2009): a TPC-H-like schema laid out over the paper's two volumes, the
//! 25-operator / 9-leaf execution plan of Figure 1 for TPC-H Query 2, the periodic
//! report query DIADS diagnoses, plus alternative plans the optimizer can fall back
//! to.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod queries;
pub mod tpch;

pub use queries::{q2_plan_candidates, ReportQuery};
pub use tpch::{tpch_catalog, TpchLayout};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compose() {
        let catalog = tpch_catalog(1.0, &TpchLayout::paper_default());
        let candidates = q2_plan_candidates(&catalog);
        assert!(!candidates.is_empty());
    }
}
