//! RAID levels, their I/O amplification and rebuild behaviour.
//!
//! The storage pools of the simulated subsystem stripe volume data across their member
//! disks according to a RAID level. The level determines how many physical I/Os a
//! logical read or write costs (write amplification is what makes RAID-5 pools so
//! sensitive to write-heavy interlopers) and how expensive a rebuild is after a disk
//! failure — the "RAID rebuild" fault of the paper's fault injector.

/// RAID level of a storage pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// Striping only; no redundancy.
    Raid0,
    /// Mirroring: every write goes to two disks.
    Raid1,
    /// Striping with distributed parity: each small write costs 2 reads + 2 writes.
    Raid5,
    /// Striped mirrors.
    Raid10,
}

impl RaidLevel {
    /// Physical read operations caused by one logical read.
    pub fn read_amplification(self) -> f64 {
        // Reads are served from a single copy/stripe for every level.
        1.0
    }

    /// Physical I/O operations caused by one logical (small, random) write.
    pub fn write_amplification(self) -> f64 {
        match self {
            RaidLevel::Raid0 => 1.0,
            RaidLevel::Raid1 | RaidLevel::Raid10 => 2.0,
            // Read-modify-write of data + parity.
            RaidLevel::Raid5 => 4.0,
        }
    }

    /// Multiplier applied to the pool's background load while a rebuild is in progress.
    ///
    /// A rebuild reads every surviving disk and writes the replacement, stealing a large
    /// share of the pool's throughput; 0.35 extra utilisation per disk is a conservative
    /// enterprise-controller default.
    pub fn rebuild_load_factor(self) -> f64 {
        match self {
            RaidLevel::Raid0 => 0.0,
            RaidLevel::Raid1 | RaidLevel::Raid10 => 0.25,
            RaidLevel::Raid5 => 0.4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RaidLevel::Raid0 => "RAID-0",
            RaidLevel::Raid1 => "RAID-1",
            RaidLevel::Raid5 => "RAID-5",
            RaidLevel::Raid10 => "RAID-10",
        }
    }
}

impl std::fmt::Display for RaidLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_ordering() {
        assert_eq!(RaidLevel::Raid0.write_amplification(), 1.0);
        assert_eq!(RaidLevel::Raid1.write_amplification(), 2.0);
        assert_eq!(RaidLevel::Raid10.write_amplification(), 2.0);
        assert_eq!(RaidLevel::Raid5.write_amplification(), 4.0);
        for level in [RaidLevel::Raid0, RaidLevel::Raid1, RaidLevel::Raid5, RaidLevel::Raid10] {
            assert_eq!(level.read_amplification(), 1.0);
        }
    }

    #[test]
    fn failure_tolerance_and_rebuild() {
        assert!(RaidLevel::Raid5.rebuild_load_factor() > RaidLevel::Raid10.rebuild_load_factor());
        assert_eq!(RaidLevel::Raid0.rebuild_load_factor(), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(RaidLevel::Raid5.to_string(), "RAID-5");
        assert_eq!(RaidLevel::Raid10.name(), "RAID-10");
    }
}
