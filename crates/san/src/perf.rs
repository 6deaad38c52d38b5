//! The SAN performance engine.
//!
//! The engine turns *offered load* (external workloads plus the database's own I/O)
//! into *observed performance*: per-disk utilisation via an M/M/1-style queueing model,
//! response times that grow as shared disks saturate, and per-component metric samples
//! recorded through the monitoring collector. Cross-volume contention arises naturally:
//! every volume carved from a pool spreads its I/O over the same physical disks, so a
//! new volume V′ placed on V1's pool (scenario 1) inflates the service times V1's I/O
//! experiences even though V1's own request rate is unchanged.
//!
//! Front-end vs. back-end metrics: volume metrics describe the I/O issued *to that
//! volume* (front-end); pool and disk metrics describe the physical activity on the
//! spindles (back-end), which includes every volume sharing them plus RAID overheads
//! and rebuild traffic. Both views are recorded, exactly like an enterprise controller
//! (and both appear in an operator's dependency path, so dependency analysis sees the
//! contention wherever it physically manifests).
//!
//! Per-instant evaluation: every disk of a pool sees the same load, so the model is
//! evaluated once per instant rather than once per disk. For one instant and one set
//! of extra loads, each volume's offered load and each pool's disk utilisation are
//! computed once; a response time, and every volume, pool, disk and HBA sample of a
//! recording step, read them from there. The arithmetic is the per-disk model's,
//! step for step: a disk reads the utilisation of the first pool (in name order)
//! that lists it, and a volume still averages one value per live disk.
//!
//! Extra loads that are inactive at the instant are still blended in, as
//! [`IoProfile::IDLE`]. Blending `IDLE` into a profile recomputes each of its
//! weighted means as `(x·y)/x`, which IEEE arithmetic does not promise returns `y`
//! exactly; skipping those loads would make the model's output rest on that
//! rounding, so every load takes part in the same order as always.

use diads_monitor::{
    ComponentId, ComponentKind, Duration, IntervalSampler, MetricKey, MetricName, MetricSink, TimeRange,
    Timestamp,
};

use crate::topology::{SanTopology, StoragePool, StorageVolume};
use crate::workload::{ExternalWorkload, IoProfile};
use crate::{Result, SanError};

/// Tunables of the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanPerfConfig {
    /// Disk service time of one random read at zero load (milliseconds).
    pub random_read_service_ms: f64,
    /// Disk service time of one random write at zero load (milliseconds).
    pub random_write_service_ms: f64,
    /// Disk service time of one sequential I/O at zero load (milliseconds).
    pub sequential_service_ms: f64,
    /// Fraction of reads absorbed by the controller cache.
    pub controller_cache_hit_fraction: f64,
    /// Service time of a controller-cache hit (milliseconds).
    pub cache_hit_service_ms: f64,
    /// Utilisation cap used when computing queueing delay (keeps response times finite).
    pub max_utilization: f64,
    /// Step, in seconds, at which the engine evaluates load and emits raw samples.
    pub metric_step_secs: u64,
}

impl Default for SanPerfConfig {
    fn default() -> Self {
        SanPerfConfig {
            random_read_service_ms: 5.0,
            random_write_service_ms: 6.0,
            sequential_service_ms: 0.9,
            controller_cache_hit_fraction: 0.3,
            cache_hit_service_ms: 0.2,
            max_utilization: 0.95,
            metric_step_secs: 30,
        }
    }
}

/// Extra I/O load against a volume over a window of time — how the database executor
/// tells the SAN about the I/O a query run will issue.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeLoad {
    /// Target volume.
    pub volume: String,
    /// I/O intensity.
    pub profile: IoProfile,
    /// Window during which the load is applied.
    pub window: TimeRange,
}

impl VolumeLoad {
    /// Creates a volume load.
    pub fn new(volume: impl Into<String>, profile: IoProfile, window: TimeRange) -> Self {
        VolumeLoad { volume: volume.into(), profile, window }
    }

    fn profile_at(&self, t: Timestamp) -> IoProfile {
        if self.window.contains(t) {
            self.profile
        } else {
            IoProfile::IDLE
        }
    }
}

/// Read/write response times of a volume at an instant, in milliseconds per I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeResponse {
    /// Average read response time (ms).
    pub read_ms: f64,
    /// Average write response time (ms).
    pub write_ms: f64,
    /// Mean utilisation of the disks backing the volume (0..1).
    pub disk_utilization: f64,
}

/// A window during which a RAID rebuild loads a pool's disks.
#[derive(Debug, Clone, PartialEq)]
struct RebuildWindow {
    pool: String,
    window: TimeRange,
}

/// The SAN simulator: topology + external workloads + the performance model.
#[derive(Debug, Clone)]
pub struct SanSimulator {
    topology: SanTopology,
    workloads: Vec<ExternalWorkload>,
    rebuilds: Vec<RebuildWindow>,
    config: SanPerfConfig,
}

impl SanSimulator {
    /// Creates a simulator over a topology with the default performance model.
    pub fn new(topology: SanTopology) -> Self {
        Self::with_config(topology, SanPerfConfig::default())
    }

    /// Creates a simulator with explicit performance tunables.
    pub fn with_config(topology: SanTopology, config: SanPerfConfig) -> Self {
        SanSimulator { topology, workloads: Vec::new(), rebuilds: Vec::new(), config }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &SanTopology {
        &self.topology
    }

    /// Mutable access to the topology (used by the fault injector).
    pub fn topology_mut(&mut self) -> &mut SanTopology {
        &mut self.topology
    }

    /// The performance configuration.
    pub fn config(&self) -> &SanPerfConfig {
        &self.config
    }

    /// Registers an external workload.
    ///
    /// # Errors
    /// Fails if the target volume does not exist.
    pub fn add_workload(&mut self, workload: ExternalWorkload) -> Result<()> {
        if self.topology.volume(&workload.volume).is_none() {
            return Err(SanError::UnknownComponent(workload.volume.clone()));
        }
        self.workloads.push(workload);
        Ok(())
    }

    /// The registered external workloads.
    pub fn workloads(&self) -> &[ExternalWorkload] {
        &self.workloads
    }

    /// Registers a RAID-rebuild window on a pool (also emits the start event).
    ///
    /// # Errors
    /// Fails if the pool does not exist.
    pub fn add_rebuild_window(&mut self, pool: &str, window: TimeRange) -> Result<()> {
        self.topology.start_raid_rebuild(window.start, pool)?;
        self.rebuilds.push(RebuildWindow { pool: pool.to_string(), window });
        Ok(())
    }

    /// The combined load on a volume at an instant: every external workload on it,
    /// then every extra load on it, blended in registration order.
    fn offered_volume_load(&self, volume: &str, t: Timestamp, extra: &[VolumeLoad]) -> IoProfile {
        let mut total = IoProfile::IDLE;
        for w in self.workloads.iter().filter(|w| w.volume == volume) {
            total = combine(total, w.profile_at(t));
        }
        for e in extra.iter().filter(|e| e.volume == volume) {
            total = combine(total, e.profile_at(t));
        }
        total
    }

    /// Mean service time of one read issued to a pool's disks (ms), given the mix.
    fn read_service_ms(&self, seq_fraction: f64) -> f64 {
        let cache = self.config.controller_cache_hit_fraction;
        let miss_service = seq_fraction * self.config.sequential_service_ms
            + (1.0 - seq_fraction) * self.config.random_read_service_ms;
        cache * self.config.cache_hit_service_ms + (1.0 - cache) * miss_service
    }

    /// Mean service time of one write issued to a pool's disks (ms), given the mix.
    fn write_service_ms(&self, seq_fraction: f64) -> f64 {
        seq_fraction * self.config.sequential_service_ms
            + (1.0 - seq_fraction) * self.config.random_write_service_ms
    }

    fn is_live(&self, disk: &str) -> bool {
        self.topology.disk(disk).is_some_and(|d| !d.failed)
    }

    /// Utilisation of each live disk of a pool at an instant, in `[0, 1+)`: the
    /// fraction of the second the disk spends servicing the back-end I/O of every
    /// volume in the pool (RAID amplification included) plus any rebuild traffic.
    /// `loads` holds every volume's offered load, in name order.
    fn pool_utilization(
        &self,
        pool: &StoragePool,
        loads: &[(&StorageVolume, IoProfile)],
        t: Timestamp,
    ) -> f64 {
        let live_disks = pool.disks.iter().filter(|d| self.is_live(d)).count().max(1) as f64;
        let mut busy_ms_per_sec = 0.0;
        for (_, load) in loads.iter().filter(|(v, _)| v.pool == pool.name) {
            if load.total_iops() <= 0.0 {
                continue;
            }
            let read_amp = pool.raid.read_amplification();
            let write_amp = pool.raid.write_amplification();
            let per_disk_reads = load.read_iops * read_amp / live_disks;
            let per_disk_writes = load.write_iops * write_amp / live_disks;
            busy_ms_per_sec += per_disk_reads * self.read_service_ms(load.sequential_fraction)
                + per_disk_writes * self.write_service_ms(load.sequential_fraction);
        }
        let mut utilization = busy_ms_per_sec / 1000.0;
        if self.rebuild_active(&pool.name, t) {
            utilization += pool.raid.rebuild_load_factor();
        }
        utilization
    }

    fn rebuild_active(&self, pool: &str, t: Timestamp) -> bool {
        self.rebuilds.iter().any(|r| r.pool == pool && r.window.contains(t))
    }

    /// Response times experienced by I/O to a volume at an instant, given extra loads.
    pub fn volume_response(&self, volume: &str, t: Timestamp, extra: &[VolumeLoad]) -> VolumeResponse {
        LoadAt::new(self, t, extra).response(volume)
    }

    /// Steps through a time range and records raw performance samples for every SAN
    /// component into the collector. `extra` carries the database's own I/O windows so
    /// the stored metrics reflect the full offered load.
    ///
    /// The sink is either an exclusively-borrowed `MetricStore` (the sequential
    /// reference path) or a `&ShardedWriter` view, which lets several workers — each
    /// with its own sampler over an interval-aligned sub-range — record one
    /// scenario's SAN metrics concurrently. Per-series noise streams make the two
    /// bit-identical.
    pub fn record_metrics<S: MetricSink>(
        &self,
        range: TimeRange,
        extra: &[VolumeLoad],
        sampler: &mut IntervalSampler,
        store: &mut S,
    ) {
        let step = self.config.metric_step_secs.max(1);
        let mut t = range.start;
        while t < range.end {
            self.record_step(t, step, extra, sampler, store);
            t = t.plus(Duration::from_secs(step));
        }
    }

    fn record_step<S: MetricSink>(
        &self,
        t: Timestamp,
        step: u64,
        extra: &[VolumeLoad],
        sampler: &mut IntervalSampler,
        store: &mut S,
    ) {
        let at = LoadAt::new(self, t, extra);
        let step_f = step as f64;
        let mut pool_acc = vec![[0.0; 6]; at.pools.len()];
        let mut total_bytes = 0.0;
        let mut total_ios = 0.0;

        // Volumes (front-end view).
        for &(volume, load) in &at.loads {
            let resp = at.response(&volume.name);
            let reads = load.read_iops * step_f;
            let writes = load.write_iops * step_f;
            let bytes_read = load.read_iops * load.read_kb * 1024.0 * step_f;
            let bytes_written = load.write_iops * load.write_kb * 1024.0 * step_f;
            let read_time_s = reads * resp.read_ms / 1000.0;
            let write_time_s = writes * resp.write_ms / 1000.0;
            let comp = store.intern_component(&ComponentId::volume(&volume.name));
            let mut emit = |metric: MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(&metric));
                sampler.observe(store, key, t, value);
            };
            emit(MetricName::ReadIo, reads);
            emit(MetricName::WriteIo, writes);
            emit(MetricName::BytesRead, bytes_read);
            emit(MetricName::BytesWritten, bytes_written);
            emit(MetricName::ReadTime, read_time_s);
            emit(MetricName::WriteTime, write_time_s);
            emit(MetricName::ReadResponseTimeMs, resp.read_ms);
            emit(MetricName::WriteResponseTimeMs, resp.write_ms);
            emit(MetricName::SequentialReadRequests, reads * load.sequential_fraction);
            emit(MetricName::SequentialWriteRequests, writes * load.sequential_fraction);
            emit(
                MetricName::SequentialReadHits,
                reads * load.sequential_fraction * self.config.controller_cache_hit_fraction,
            );
            emit(MetricName::ContaminatingWrites, writes * load.sequential_fraction * 0.05);
            emit(MetricName::TotalIos, reads + writes);
            emit(MetricName::Utilization, resp.disk_utilization);

            if let Some(i) = at.pools.iter().position(|(p, _)| p.name == volume.pool) {
                let raid = at.pools[i].0.raid;
                let acc = &mut pool_acc[i];
                acc[0] += reads * raid.read_amplification();
                acc[1] += writes * raid.write_amplification();
                acc[2] += bytes_read;
                acc[3] += bytes_written;
                acc[4] += read_time_s;
                acc[5] += write_time_s;
            }
            total_bytes += bytes_read + bytes_written;
            total_ios += reads + writes;
        }

        // Pools and their disks (back-end view).
        for (&(pool, _), acc) in at.pools.iter().zip(&pool_acc) {
            let comp = store.intern_component(&ComponentId::pool(&pool.name));
            let live_disks = || pool.disks.iter().filter(|d| self.is_live(d));
            let n_live = live_disks().count();
            let pool_util = if n_live == 0 {
                1.0
            } else {
                live_disks().map(|d| at.disk_utilization(d)).sum::<f64>() / n_live as f64
            };
            let mut emit = |metric: MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(&metric));
                sampler.observe(store, key, t, value);
            };
            emit(MetricName::ReadIo, acc[0]);
            emit(MetricName::WriteIo, acc[1]);
            emit(MetricName::BytesRead, acc[2]);
            emit(MetricName::BytesWritten, acc[3]);
            emit(MetricName::ReadTime, acc[4]);
            emit(MetricName::WriteTime, acc[5]);
            emit(MetricName::TotalIos, acc[0] + acc[1]);
            emit(MetricName::Utilization, pool_util);

            let n = n_live.max(1) as f64;
            for disk in live_disks() {
                let comp = store.intern_component(&ComponentId::disk(disk));
                let util = at.disk_utilization(disk);
                let mut emit = |metric: MetricName, value: f64| {
                    let key = MetricKey::new(comp, store.intern_metric(&metric));
                    sampler.observe(store, key, t, value);
                };
                emit(MetricName::ReadIo, acc[0] / n);
                emit(MetricName::WriteIo, acc[1] / n);
                emit(MetricName::BytesRead, acc[2] / n);
                emit(MetricName::BytesWritten, acc[3] / n);
                emit(MetricName::ReadTime, acc[4] / n);
                emit(MetricName::WriteTime, acc[5] / n);
                emit(MetricName::TotalIos, (acc[0] + acc[1]) / n);
                emit(MetricName::Utilization, util);
            }
        }

        // Subsystems: aggregate of every pool.
        for sub in self.topology.subsystems() {
            let comp = store.intern_component(&ComponentId::new(ComponentKind::StorageSubsystem, &sub.name));
            let mut emit = |metric: MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(&metric));
                sampler.observe(store, key, t, value);
            };
            emit(MetricName::TotalIos, total_ios);
            emit(MetricName::BytesRead, total_bytes * 0.5);
            emit(MetricName::BytesWritten, total_bytes * 0.5);
        }

        // Fabric: split bytes evenly across switches; errors stay at zero.
        let n_switches = self.topology.switches().count().max(1) as f64;
        for sw in self.topology.switches() {
            let comp = store.intern_component(&ComponentId::new(ComponentKind::FcSwitch, &sw.name));
            let mut emit = |metric: MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(&metric));
                sampler.observe(store, key, t, value);
            };
            emit(MetricName::BytesTransmitted, total_bytes / n_switches / 2.0);
            emit(MetricName::BytesReceived, total_bytes / n_switches / 2.0);
            emit(MetricName::PacketsTransmitted, total_ios / n_switches);
            emit(MetricName::PacketsReceived, total_ios / n_switches);
            emit(MetricName::ErrorFrames, 0.0);
            emit(MetricName::CrcErrors, 0.0);
            emit(MetricName::LinkFailures, 0.0);
            emit(MetricName::DumpedFrames, 0.0);
        }

        // HBAs: traffic of the volumes mapped to their server.
        for hba in self.topology.hbas() {
            let mut bytes = 0.0;
            let mut ios = 0.0;
            for vol in self.topology.zoning.lun_mapping.volumes_of(&hba.server) {
                let load = at.load(vol);
                bytes += (load.read_iops * load.read_kb + load.write_iops * load.write_kb) * 1024.0 * step_f;
                ios += load.total_iops() * step_f;
            }
            let comp = store.intern_component(&ComponentId::new(ComponentKind::Hba, &hba.name));
            let mut emit = |metric: MetricName, value: f64| {
                let key = MetricKey::new(comp, store.intern_metric(&metric));
                sampler.observe(store, key, t, value);
            };
            emit(MetricName::BytesTransmitted, bytes / 2.0);
            emit(MetricName::BytesReceived, bytes / 2.0);
            emit(MetricName::PacketsTransmitted, ios / 2.0);
            emit(MetricName::PacketsReceived, ios / 2.0);
            emit(MetricName::ErrorFrames, 0.0);
            emit(MetricName::CrcErrors, 0.0);
        }
    }
}

/// The model evaluated at one instant for one set of extra loads: each volume's
/// offered load and each pool's disk utilisation, computed once and read by every
/// volume, pool, disk and HBA that needs them.
struct LoadAt<'a> {
    sim: &'a SanSimulator,
    t: Timestamp,
    extra: &'a [VolumeLoad],
    /// Every volume with its offered load, in name order.
    loads: Vec<(&'a StorageVolume, IoProfile)>,
    /// Every pool with the utilisation of its live disks, in name order.
    pools: Vec<(&'a StoragePool, f64)>,
}

impl<'a> LoadAt<'a> {
    fn new(sim: &'a SanSimulator, t: Timestamp, extra: &'a [VolumeLoad]) -> Self {
        let loads: Vec<_> =
            sim.topology.volumes().map(|v| (v, sim.offered_volume_load(&v.name, t, extra))).collect();
        let pools = sim.topology.pools().map(|p| (p, sim.pool_utilization(p, &loads, t))).collect();
        LoadAt { sim, t, extra, loads, pools }
    }

    /// The offered load on a volume. A LUN mapping may name a volume the topology
    /// lacks; its load is computed on the spot.
    fn load(&self, volume: &str) -> IoProfile {
        match self.loads.binary_search_by(|(v, _)| v.name.as_str().cmp(volume)) {
            Ok(i) => self.loads[i].1,
            Err(_) => self.sim.offered_volume_load(volume, self.t, self.extra),
        }
    }

    /// Utilisation of one disk: that of the first pool, in name order, listing it;
    /// 0 for a failed, unknown or unpooled disk.
    fn disk_utilization(&self, disk: &str) -> f64 {
        if !self.sim.is_live(disk) {
            return 0.0;
        }
        self.pools.iter().find(|(p, _)| p.disks.iter().any(|x| x == disk)).map_or(0.0, |&(_, u)| u)
    }

    fn response(&self, volume: &str) -> VolumeResponse {
        let sim = self.sim;
        let disks = sim.topology.disks_of_volume(volume);
        let load = self.load(volume);
        let read_service = sim.read_service_ms(load.sequential_fraction);
        let write_service = sim.write_service_ms(load.sequential_fraction);
        if disks.is_empty() {
            // No surviving disks: service is effectively unavailable.
            return VolumeResponse { read_ms: 10_000.0, write_ms: 10_000.0, disk_utilization: 1.0 };
        }
        let mut util_sum = 0.0;
        for d in &disks {
            util_sum += self.disk_utilization(&d.name);
        }
        let utilization = (util_sum / disks.len() as f64).min(sim.config.max_utilization);
        let queue_factor = 1.0 / (1.0 - utilization);
        VolumeResponse {
            read_ms: read_service * queue_factor,
            write_ms: write_service * queue_factor,
            disk_utilization: utilization,
        }
    }
}

fn combine(a: IoProfile, b: IoProfile) -> IoProfile {
    let total_read = a.read_iops + b.read_iops;
    let total_write = a.write_iops + b.write_iops;
    let total = total_read + total_write;
    if total <= 0.0 {
        return IoProfile::IDLE;
    }
    // Transfer sizes and sequentiality are blended weighted by operation counts.
    let read_kb = if total_read > 0.0 {
        (a.read_iops * a.read_kb + b.read_iops * b.read_kb) / total_read
    } else {
        a.read_kb
    };
    let write_kb = if total_write > 0.0 {
        (a.write_iops * a.write_kb + b.write_iops * b.write_kb) / total_write
    } else {
        a.write_kb
    };
    let seq = (a.total_iops() * a.sequential_fraction + b.total_iops() * b.sequential_fraction) / total;
    IoProfile { read_iops: total_read, write_iops: total_write, read_kb, write_kb, sequential_fraction: seq }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_testbed;
    use crate::workload::BurstPattern;
    use diads_monitor::noise::NoiseModel;
    use diads_monitor::MetricStore;

    fn window(start: u64, secs: u64) -> TimeRange {
        TimeRange::with_duration(Timestamp::new(start), Duration::from_secs(secs))
    }

    fn quiet_sim() -> SanSimulator {
        SanSimulator::new(paper_testbed())
    }

    fn disk_utilization(sim: &SanSimulator, disk: &str, t: Timestamp, extra: &[VolumeLoad]) -> f64 {
        LoadAt::new(sim, t, extra).disk_utilization(disk)
    }

    #[test]
    fn idle_san_has_low_latency() {
        let sim = quiet_sim();
        let resp = sim.volume_response("V1", Timestamp::new(100), &[]);
        assert!(resp.disk_utilization < 0.01);
        assert!(resp.read_ms < 5.0, "near service time: {}", resp.read_ms);
        assert!(resp.write_ms >= resp.read_ms * 0.5);
    }

    #[test]
    fn contention_on_shared_disks_raises_v1_latency() {
        // Scenario 1's physics: V' is created on P1 (V1's disks) and an external
        // workload hammers it; V1's latency rises although V1's own load is unchanged.
        let mut sim = quiet_sim();
        let t0 = Timestamp::new(0);
        sim.topology_mut().create_volume(t0, "Vprime", "P1", 50).unwrap();
        let baseline = sim.volume_response("V1", Timestamp::new(5_000), &[]).read_ms;
        sim.add_workload(ExternalWorkload::steady(
            "etl-on-vprime",
            "app-server",
            "Vprime",
            IoProfile::oltp(250.0, 120.0),
            window(1_000, 100_000),
        ))
        .unwrap();
        let contended = sim.volume_response("V1", Timestamp::new(5_000), &[]).read_ms;
        assert!(contended > baseline * 2.0, "baseline {baseline} contended {contended}");
        // V2 lives on P2 and is unaffected.
        let v2 = sim.volume_response("V2", Timestamp::new(5_000), &[]).read_ms;
        assert!(v2 < baseline * 1.5, "v2 latency {v2} should stay near baseline {baseline}");
    }

    #[test]
    fn workload_against_unknown_volume_is_rejected() {
        let mut sim = quiet_sim();
        let err = sim.add_workload(ExternalWorkload::steady(
            "bad",
            "app-server",
            "V99",
            IoProfile::oltp(10.0, 10.0),
            window(0, 10),
        ));
        assert!(matches!(err, Err(SanError::UnknownComponent(_))));
    }

    #[test]
    fn extra_query_load_contributes_to_utilization() {
        let sim = quiet_sim();
        let t = Timestamp::new(500);
        let idle = disk_utilization(&sim, "ds-01", t, &[]);
        let extra = vec![VolumeLoad::new("V1", IoProfile::oltp(300.0, 50.0), window(0, 1_000))];
        let busy = disk_utilization(&sim, "ds-01", t, &extra);
        assert!(busy > idle + 0.05, "idle {idle}, busy {busy}");
        // Outside the window the extra load does not apply.
        let later = disk_utilization(&sim, "ds-01", Timestamp::new(5_000), &extra);
        assert!(later < 0.01);
    }

    #[test]
    fn failed_disks_shrink_the_pool_and_raise_latency() {
        let mut sim = quiet_sim();
        sim.add_workload(ExternalWorkload::steady(
            "steady",
            "db-server",
            "V1",
            IoProfile::oltp(150.0, 60.0),
            window(0, 100_000),
        ))
        .unwrap();
        let before = sim.volume_response("V1", Timestamp::new(100), &[]);
        sim.topology_mut().fail_disk(Timestamp::new(200), "ds-01").unwrap();
        let after = sim.volume_response("V1", Timestamp::new(300), &[]);
        assert!(after.read_ms > before.read_ms);
        assert!(after.disk_utilization > before.disk_utilization);
    }

    #[test]
    fn rebuild_window_adds_background_load() {
        let mut sim = quiet_sim();
        let before = disk_utilization(&sim, "ds-05", Timestamp::new(100), &[]);
        sim.add_rebuild_window("P2", window(50, 1_000)).unwrap();
        let during = disk_utilization(&sim, "ds-05", Timestamp::new(100), &[]);
        let after = disk_utilization(&sim, "ds-05", Timestamp::new(5_000), &[]);
        assert!(during > before + 0.3);
        assert!(after < 0.05);
        assert!(sim.add_rebuild_window("P9", window(0, 10)).is_err());
    }

    #[test]
    fn bursty_load_alternates() {
        let mut sim = quiet_sim();
        sim.add_workload(ExternalWorkload::bursty(
            "bursty-v2",
            "app-server",
            "V2",
            IoProfile::batch_write(400.0),
            BurstPattern::Bursty { period_secs: 600, burst_secs: 60, multiplier: 1.0, idle_fraction: 0.0 },
            window(0, 100_000),
        ))
        .unwrap();
        let during_burst = sim.volume_response("V2", Timestamp::new(30), &[]);
        let between = sim.volume_response("V2", Timestamp::new(300), &[]);
        assert!(during_burst.disk_utilization > between.disk_utilization);
    }

    #[test]
    fn record_metrics_populates_the_store() {
        let mut sim = quiet_sim();
        sim.add_workload(ExternalWorkload::steady(
            "app-load",
            "app-server",
            "V3",
            IoProfile::oltp(100.0, 80.0),
            window(0, 3_600),
        ))
        .unwrap();
        let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 7);
        let mut store = MetricStore::new();
        sim.record_metrics(window(0, 3_600), &[], &mut sampler, &mut store);
        sampler.flush(&mut store);

        let full = window(0, 3_600);
        let v3_write = store.mean_in(&ComponentId::volume("V3"), &MetricName::WriteIo, full).unwrap();
        assert!(v3_write > 0.0);
        let v1_write = store.mean_in(&ComponentId::volume("V1"), &MetricName::WriteIo, full).unwrap();
        assert!(v1_write.abs() < 1e-9, "idle volume records ~0: {v1_write}");
        // Back-end view exists for pools and disks.
        assert!(store.mean_in(&ComponentId::pool("P2"), &MetricName::WriteIo, full).unwrap() > 0.0);
        assert!(store.mean_in(&ComponentId::disk("ds-05"), &MetricName::Utilization, full).is_some());
        // Fabric and HBA series exist too.
        assert!(store
            .mean_in(
                &ComponentId::new(ComponentKind::FcSwitch, "fc-switch-core"),
                &MetricName::BytesTransmitted,
                full
            )
            .is_some());
        assert!(store
            .mean_in(
                &ComponentId::new(ComponentKind::Hba, "app-server-hba0"),
                &MetricName::BytesReceived,
                full
            )
            .is_some());
        // Roughly one point per 5-minute interval for a 1-hour window.
        let series = store.series(&ComponentId::volume("V3"), &MetricName::WriteIo).unwrap();
        assert!(series.len() >= 10 && series.len() <= 13, "got {}", series.len());
    }

    #[test]
    fn raid5_pool_write_amplification_shows_up_in_pool_counters() {
        let mut sim = quiet_sim();
        sim.add_workload(ExternalWorkload::steady(
            "writer",
            "app-server",
            "V3",
            IoProfile {
                read_iops: 0.0,
                write_iops: 100.0,
                read_kb: 8.0,
                write_kb: 8.0,
                sequential_fraction: 0.0,
            },
            window(0, 600),
        ))
        .unwrap();
        let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
        let mut store = MetricStore::new();
        sim.record_metrics(window(0, 600), &[], &mut sampler, &mut store);
        sampler.flush(&mut store);
        let full = window(0, 600);
        let front = store.mean_in(&ComponentId::volume("V3"), &MetricName::WriteIo, full).unwrap();
        let back = store.mean_in(&ComponentId::pool("P2"), &MetricName::WriteIo, full).unwrap();
        assert!(
            (back / front - 4.0).abs() < 0.2,
            "RAID-5 small-write amplification ≈ 4x, got {}",
            back / front
        );
    }

    /// A topology that exercises every input of the model: external workloads on
    /// both pools (one bursty), a failed disk, a rebuild window, and query loads
    /// that are active at some instants and inactive at others.
    fn pinned_sim() -> (SanSimulator, Vec<VolumeLoad>) {
        let mut sim = quiet_sim();
        sim.topology_mut().create_volume(Timestamp::new(0), "Vprime", "P1", 50).unwrap();
        sim.add_workload(ExternalWorkload::steady(
            "etl-on-vprime",
            "app-server",
            "Vprime",
            IoProfile::oltp(180.0, 90.0),
            window(600, 2_400),
        ))
        .unwrap();
        sim.add_workload(ExternalWorkload::bursty(
            "batch-on-v3",
            "app-server",
            "V3",
            IoProfile::batch_write(220.0),
            BurstPattern::Bursty { period_secs: 900, burst_secs: 120, multiplier: 1.5, idle_fraction: 0.1 },
            window(0, 3_600),
        ))
        .unwrap();
        sim.topology_mut().fail_disk(Timestamp::new(900), "ds-02").unwrap();
        sim.add_rebuild_window("P2", window(1_500, 900)).unwrap();
        let extra = vec![
            VolumeLoad::new("V1", IoProfile::oltp(120.0, 15.0), window(300, 600)),
            VolumeLoad::new("V2", IoProfile::batch_write(60.0), window(1_200, 1_200)),
            VolumeLoad::new("V1", IoProfile::oltp(40.0, 40.0), window(2_000, 300)),
            VolumeLoad::new("V4", IoProfile::oltp(75.0, 5.0), window(3_000, 600)),
        ];
        (sim, extra)
    }

    /// `volume_response` bits `[read_ms, write_ms, disk_utilization]` of V1, V2, V3,
    /// V4 and Vprime (name order) at each instant, captured from the per-disk model.
    const PINNED_RESPONSES: [(u64, [[u64; 3]; 5]); 7] = [
        (
            0,
            [
                [4615198826136736891, 4618441417868443648, 0],
                [4620459210046350741, 4623582757059502364, 4603067304180103519],
                [4614826924530922668, 4617674461021230515, 4603067304180103519],
                [4620459210046350741, 4623582757059502364, 4603067304180103519],
                [4615198826136736891, 4618441417868443648, 0],
            ],
        ),
        (
            450,
            [
                [4616539393197032709, 4619826876198652794, 4597840872308940429],
                [4615499994749000847, 4618695211642823386, 4585379044646276675],
                [4609926324957407201, 4612859865304520149, 4585379044646276675],
                [4615499994749000847, 4618695211642823386, 4585379044646276675],
                [4616964971736259126, 4620583130745710188, 4597840872308940429],
            ],
        ),
        (
            1000,
            [
                [4627612503119844243, 4631027675824428055, 4605877996203945819],
                [4620459210046350741, 4623582757059502364, 4603067304180103519],
                [4614826924530922668, 4617674461021230515, 4603067304180103519],
                [4620459210046350741, 4623582757059502364, 4603067304180103519],
                [4627054684321916067, 4630532052850659119, 4605877996203945819],
            ],
        ),
        (
            1600,
            [
                [4627612503119844243, 4631027675824428055, 4605877996203945819],
                [4614692609875986137, 4617569243544926270, 4602993708156432881],
                [4614692609875986137, 4617569243544926270, 4602993708156432881],
                [4620305064278596374, 4623452858940608234, 4602993708156432881],
                [4627054684321916067, 4630532052850659119, 4605877996203945819],
            ],
        ),
        (
            2100,
            [
                [4634306754930739769, 4637426905047577389, 4606732058837280358],
                [4614692609875986137, 4617569243544926270, 4602993708156432881],
                [4614692609875986137, 4617569243544926270, 4602993708156432881],
                [4620305064278596374, 4623452858940608234, 4602993708156432881],
                [4634306754930739769, 4637426905047577389, 4606732058837280358],
            ],
        ),
        (
            3100,
            [
                [4615198826136736891, 4618441417868443648, 0],
                [4616044451976916405, 4619154023913538744, 4591540242755376857],
                [4610400736845326881, 4613231503243799589, 4591540242755376857],
                [4615330012785407974, 4618519243447215923, 4591540242755376857],
                [4615198826136736891, 4618441417868443648, 0],
            ],
        ),
        (
            3500,
            [
                [4615198826136736891, 4618441417868443648, 0],
                [4616044451976916405, 4619154023913538744, 4591540242755376857],
                [4610400736845326881, 4613231503243799589, 4591540242755376857],
                [4615330012785407974, 4618519243447215923, 4591540242755376857],
                [4615198826136736891, 4618441417868443648, 0],
            ],
        ),
    ];
    /// `content_fingerprint` and point count of the store `record_metrics` fills.
    /// The fingerprint hashes the keys' stable identity hashes, so it holds in any
    /// store, whatever else the process interned first.
    const PINNED_STORE: (u64, usize) = (14179372367896805963, 2268);

    #[test]
    fn model_output_is_pinned_bit_for_bit() {
        let (sim, extra) = pinned_sim();
        let volumes = sim.topology().volume_names();
        for (t, expected) in PINNED_RESPONSES {
            for (v, bits) in volumes.iter().zip(expected) {
                let r = sim.volume_response(v, Timestamp::new(t), &extra);
                let got = [r.read_ms.to_bits(), r.write_ms.to_bits(), r.disk_utilization.to_bits()];
                assert_eq!(got, bits, "{v} at t={t}");
            }
        }
        assert_eq!(disk_utilization(&sim, "ds-02", Timestamp::new(1_600), &extra), 0.0, "failed disk");
        let mut sampler =
            IntervalSampler::new(Duration::from_mins(5), NoiseModel::Gaussian { sigma: 0.05 }, 11);
        let mut store = MetricStore::new();
        sim.record_metrics(window(0, 3_600), &extra, &mut sampler, &mut store);
        sampler.flush(&mut store);
        assert_eq!((store.content_fingerprint(), store.point_count()), PINNED_STORE);
    }

    #[test]
    fn combine_blends_profiles() {
        let a = IoProfile {
            read_iops: 100.0,
            write_iops: 0.0,
            read_kb: 8.0,
            write_kb: 8.0,
            sequential_fraction: 0.0,
        };
        let b = IoProfile {
            read_iops: 100.0,
            write_iops: 100.0,
            read_kb: 64.0,
            write_kb: 64.0,
            sequential_fraction: 1.0,
        };
        let c = combine(a, b);
        assert_eq!(c.read_iops, 200.0);
        assert_eq!(c.write_iops, 100.0);
        assert!((c.read_kb - 36.0).abs() < 1e-9);
        assert!(c.sequential_fraction > 0.5 && c.sequential_fraction < 0.75);
        assert_eq!(combine(IoProfile::IDLE, IoProfile::IDLE).total_iops(), 0.0);
    }
}
