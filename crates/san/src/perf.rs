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
//! Per-call index: the topology, workloads, rebuild windows and extra loads are
//! fixed for one call of [`SanSimulator::volume_response`] or
//! [`SanSimulator::record_metrics`], so the call resolves every name once into a
//! crate-private index of slots: each volume's pool and loads, each pool's live
//! disks and rebuild windows, each HBA's LUN-mapped volumes and, when recording,
//! the interned key of every series. An instant is then evaluated from slots alone:
//! every disk of a pool sees the same load, so each volume's offered load and each
//! pool's disk utilisation are computed once per instant, and a response time and
//! every volume, pool, disk and HBA sample read them from there. A recording step
//! is that arithmetic plus one `observe` per series. The arithmetic is the per-disk
//! model's, step for step: a disk reads the utilisation of the first pool (in name
//! order) that lists it, a volume still averages one value per live disk, and pool
//! and HBA sums add their terms in name order.
//!
//! Extra loads that are inactive at the instant are still blended in, as
//! [`IoProfile::IDLE`]. Blending `IDLE` into a profile recomputes each of its
//! weighted means as `(x·y)/x`, which IEEE arithmetic does not promise returns `y`
//! exactly; no proof yet shows it does for every reachable profile, so skipping
//! those loads could change the model's output bits. Every load takes part, in the
//! same order as always.

use std::ops::Range;

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

    /// Response times experienced by I/O to a volume at an instant, given extra loads.
    pub fn volume_response(&self, volume: &str, t: Timestamp, extra: &[VolumeLoad]) -> VolumeResponse {
        let mut index = ModelIndex::new(self, extra);
        index.evaluate(t);
        index.volume_slot(volume).map_or(UNAVAILABLE, |v| index.response(v))
    }

    /// Steps through a time range and records raw performance samples for every SAN
    /// component into the sink. `extra` carries the database's own I/O windows so
    /// the stored metrics reflect the full offered load.
    ///
    /// `Testbed::run_scenario` calls this once per scenario, after its runs, with
    /// the scenario's `MetricStore` as the sink and every run's loads as `extra`;
    /// the sampler averages the raw samples into the stored intervals. Every series'
    /// key is interned before the first step, so a step is arithmetic plus one
    /// `observe` per series. An empty range interns and records nothing.
    pub fn record_metrics<S: MetricSink>(
        &self,
        range: TimeRange,
        extra: &[VolumeLoad],
        sampler: &mut IntervalSampler,
        store: &mut S,
    ) {
        if range.start >= range.end {
            return;
        }
        let step = self.config.metric_step_secs.max(1);
        let mut index = ModelIndex::recording(self, extra);
        let keys = index.keys(store);
        let mut values = Vec::with_capacity(keys.len());
        let mut t = range.start;
        while t < range.end {
            index.evaluate(t);
            values.clear();
            index.samples(step as f64, &mut values);
            debug_assert_eq!(values.len(), keys.len());
            for (&key, &value) in keys.iter().zip(&values) {
                sampler.observe(store, key, t, value);
            }
            t = t.plus(Duration::from_secs(step));
        }
    }
}

/// The response of a volume with no surviving disk: service is effectively
/// unavailable.
const UNAVAILABLE: VolumeResponse =
    VolumeResponse { read_ms: 10_000.0, write_ms: 10_000.0, disk_utilization: 1.0 };

/// What a recording step samples, in emission order: each volume, each pool
/// followed by each of its live disks, each subsystem, each switch and each HBA.
const VOLUME_METRICS: [MetricName; 14] = [
    MetricName::ReadIo,
    MetricName::WriteIo,
    MetricName::BytesRead,
    MetricName::BytesWritten,
    MetricName::ReadTime,
    MetricName::WriteTime,
    MetricName::ReadResponseTimeMs,
    MetricName::WriteResponseTimeMs,
    MetricName::SequentialReadRequests,
    MetricName::SequentialWriteRequests,
    MetricName::SequentialReadHits,
    MetricName::ContaminatingWrites,
    MetricName::TotalIos,
    MetricName::Utilization,
];
const BACK_END_METRICS: [MetricName; 8] = [
    MetricName::ReadIo,
    MetricName::WriteIo,
    MetricName::BytesRead,
    MetricName::BytesWritten,
    MetricName::ReadTime,
    MetricName::WriteTime,
    MetricName::TotalIos,
    MetricName::Utilization,
];
const SUBSYSTEM_METRICS: [MetricName; 3] =
    [MetricName::TotalIos, MetricName::BytesRead, MetricName::BytesWritten];
/// A switch samples all eight; an HBA the first six.
const FABRIC_METRICS: [MetricName; 8] = [
    MetricName::BytesTransmitted,
    MetricName::BytesReceived,
    MetricName::PacketsTransmitted,
    MetricName::PacketsReceived,
    MetricName::ErrorFrames,
    MetricName::CrcErrors,
    MetricName::LinkFailures,
    MetricName::DumpedFrames,
];

/// The model's inputs for one call, resolved once. The topology, workloads, rebuild
/// windows and extra loads do not change while `volume_response` or
/// `record_metrics` runs, so names are matched here and an instant reads slots.
/// The index also holds the model at the instant last evaluated.
struct ModelIndex<'a> {
    sim: &'a SanSimulator,
    /// Every volume in name order, with its pool's slot. A volume's load slot is
    /// its own slot; a name only a LUN mapping gives has a load slot after them.
    volumes: Vec<(&'a StorageVolume, Option<usize>)>,
    /// Each workload and extra load on a named volume, with that name's load slot,
    /// in registration order.
    workloads: Vec<(usize, &'a ExternalWorkload)>,
    extra: Vec<(usize, &'a VolumeLoad)>,
    /// Every pool in name order.
    pools: Vec<PoolIndex<'a>>,
    /// Each pool's live disks, pool after pool, as the pool lists them, each with
    /// the slot of the first pool (in name order) listing it, whose utilisation
    /// the disk reads. A volume's disks are its pool's live disks.
    disks: Vec<(&'a str, usize)>,
    /// Every rebuild window with its pool's slot.
    rebuilds: Vec<(usize, TimeRange)>,
    /// Recording only: subsystem and switch names, and every HBA with the load
    /// slots of its LUN-mapped volumes, each in name order.
    subsystems: Vec<&'a str>,
    switches: Vec<&'a str>,
    hbas: Vec<(&'a str, Vec<usize>)>,
    /// The offered load per load slot at the evaluated instant.
    load: Vec<IoProfile>,
}

struct PoolIndex<'a> {
    pool: &'a StoragePool,
    /// The pool's live disks in `ModelIndex::disks`.
    disks: Range<usize>,
    /// At the evaluated instant: the utilisation of the pool's disks and, while
    /// recording, the back-end counters summed over its volumes `[reads, writes,
    /// bytes read, bytes written, read time, write time]`.
    util: f64,
    acc: [f64; 6],
}

impl<'a> ModelIndex<'a> {
    fn new(sim: &'a SanSimulator, extra: &'a [VolumeLoad]) -> Self {
        let topology = &sim.topology;
        let mut disks = Vec::with_capacity(topology.pools().map(|p| p.disks.len()).sum());
        let mut pools: Vec<PoolIndex> = Vec::new();
        for pool in topology.pools() {
            let start = disks.len();
            for d in pool.disks.iter().filter(|d| topology.disk(d).is_some_and(|d| !d.failed)) {
                // The first pool in name order listing the disk: an earlier one, or this one.
                let first = pools.iter().position(|p| p.pool.disks.contains(d));
                disks.push((d.as_str(), first.unwrap_or(pools.len())));
            }
            pools.push(PoolIndex { pool, disks: start..disks.len(), util: 0.0, acc: [0.0; 6] });
        }
        let volumes: Vec<_> =
            topology.volumes().map(|v| (v, pools.iter().position(|p| p.pool.name == v.pool))).collect();
        let slot = |name: &str| volumes.binary_search_by(|(v, _)| v.name.as_str().cmp(name)).ok();
        let workloads = sim.workloads.iter().filter_map(|w| Some((slot(&w.volume)?, w))).collect();
        let extra = extra.iter().filter_map(|e| Some((slot(&e.volume)?, e))).collect();
        let rebuilds = sim
            .rebuilds
            .iter()
            .filter_map(|r| Some((pools.iter().position(|p| p.pool.name == r.pool)?, r.window)))
            .collect();
        let load = vec![IoProfile::IDLE; volumes.len()];
        ModelIndex {
            sim,
            volumes,
            workloads,
            extra,
            pools,
            disks,
            rebuilds,
            subsystems: Vec::new(),
            switches: Vec::new(),
            hbas: Vec::new(),
            load,
        }
    }

    /// `ModelIndex::new` plus what only a recording step reads: the subsystems,
    /// switches and HBAs. A LUN mapping may name a volume the topology lacks; that
    /// name gets a load slot of its own, blending the loads that name it.
    fn recording(sim: &'a SanSimulator, extra: &'a [VolumeLoad]) -> Self {
        let mut index = Self::new(sim, extra);
        let topology = &sim.topology;
        index.subsystems = topology.subsystems().map(|s| s.name.as_str()).collect();
        index.switches = topology.switches().map(|s| s.name.as_str()).collect();
        for hba in topology.hbas() {
            let mut slots = Vec::new();
            for name in topology.zoning.lun_mapping.volumes_of(&hba.server) {
                let slot = index.volume_slot(name).unwrap_or_else(|| {
                    let slot = index.load.len();
                    index.load.push(IoProfile::IDLE);
                    index
                        .workloads
                        .extend(sim.workloads.iter().filter(|w| w.volume == name).map(|w| (slot, w)));
                    index.extra.extend(extra.iter().filter(|e| e.volume == name).map(|e| (slot, e)));
                    slot
                });
                slots.push(slot);
            }
            index.hbas.push((&hba.name, slots));
        }
        index
    }

    fn volume_slot(&self, name: &str) -> Option<usize> {
        self.volumes.binary_search_by(|(v, _)| v.name.as_str().cmp(name)).ok()
    }

    fn live_disks(&self, pool: &PoolIndex<'_>) -> &[(&'a str, usize)] {
        &self.disks[pool.disks.clone()]
    }

    /// Interns the key of every series a recording step samples, in emission
    /// order: each component, then its metrics.
    fn keys<S: MetricSink>(&self, store: &mut S) -> Vec<MetricKey> {
        let mut keys = Vec::new();
        let mut series = |store: &mut S, component: ComponentId, metrics: &[MetricName]| {
            let component = store.intern_component(&component);
            keys.extend(metrics.iter().map(|m| MetricKey::new(component, store.intern_metric(m))));
        };
        for (volume, _) in &self.volumes {
            series(store, ComponentId::volume(&volume.name), &VOLUME_METRICS);
        }
        for pool in &self.pools {
            series(store, ComponentId::pool(&pool.pool.name), &BACK_END_METRICS);
            for &(disk, _) in self.live_disks(pool) {
                series(store, ComponentId::disk(disk), &BACK_END_METRICS);
            }
        }
        for &name in &self.subsystems {
            series(store, ComponentId::new(ComponentKind::StorageSubsystem, name), &SUBSYSTEM_METRICS);
        }
        for &name in &self.switches {
            series(store, ComponentId::new(ComponentKind::FcSwitch, name), &FABRIC_METRICS);
        }
        for &(name, _) in &self.hbas {
            series(store, ComponentId::new(ComponentKind::Hba, name), &FABRIC_METRICS[..6]);
        }
        keys
    }

    /// Evaluates the model at an instant: each offered load, blending its
    /// workloads and then its extra loads (inactive ones as `IDLE`) in order, then
    /// the utilisation of each pool's live disks — the back-end I/O of every volume
    /// in the pool (RAID amplification included), summed in volume name order,
    /// plus any rebuild traffic.
    fn evaluate(&mut self, t: Timestamp) {
        let sim = self.sim;
        self.load.fill(IoProfile::IDLE);
        for &(slot, w) in &self.workloads {
            self.load[slot] = combine(self.load[slot], w.profile_at(t));
        }
        for &(slot, e) in &self.extra {
            self.load[slot] = combine(self.load[slot], e.profile_at(t));
        }
        for pool in &mut self.pools {
            pool.util = 0.0;
        }
        for (&(_, pool), load) in self.volumes.iter().zip(&self.load) {
            let Some(p) = pool else { continue };
            if load.total_iops() <= 0.0 {
                continue;
            }
            let pool = &mut self.pools[p];
            let live_disks = pool.disks.len().max(1) as f64;
            let per_disk_reads = load.read_iops * pool.pool.raid.read_amplification() / live_disks;
            let per_disk_writes = load.write_iops * pool.pool.raid.write_amplification() / live_disks;
            pool.util += per_disk_reads * sim.read_service_ms(load.sequential_fraction)
                + per_disk_writes * sim.write_service_ms(load.sequential_fraction);
        }
        for (p, pool) in self.pools.iter_mut().enumerate() {
            pool.util /= 1000.0;
            if self.rebuilds.iter().any(|&(r, window)| r == p && window.contains(t)) {
                pool.util += pool.pool.raid.rebuild_load_factor();
            }
        }
    }

    /// A volume's response at the evaluated instant: its load's service times,
    /// queued by the mean utilisation of its live disks.
    fn response(&self, volume: usize) -> VolumeResponse {
        let sim = self.sim;
        let disks = self.volumes[volume].1.map_or(&[][..], |p| self.live_disks(&self.pools[p]));
        if disks.is_empty() {
            return UNAVAILABLE;
        }
        let mut util_sum = 0.0;
        for &(_, first) in disks {
            util_sum += self.pools[first].util;
        }
        let utilization = (util_sum / disks.len() as f64).min(sim.config.max_utilization);
        let queue_factor = 1.0 / (1.0 - utilization);
        let load = self.load[volume];
        VolumeResponse {
            read_ms: sim.read_service_ms(load.sequential_fraction) * queue_factor,
            write_ms: sim.write_service_ms(load.sequential_fraction) * queue_factor,
            disk_utilization: utilization,
        }
    }

    /// Appends one recording step's samples at the evaluated instant, in the order
    /// of `ModelIndex::keys`.
    fn samples(&mut self, step: f64, values: &mut Vec<f64>) {
        let cache_hit_fraction = self.sim.config.controller_cache_hit_fraction;
        for pool in &mut self.pools {
            pool.acc = [0.0; 6];
        }
        let mut total_bytes = 0.0;
        let mut total_ios = 0.0;

        // Volumes (front-end view).
        for (v, &(_, pool)) in self.volumes.iter().enumerate() {
            let load = self.load[v];
            let resp = self.response(v);
            let reads = load.read_iops * step;
            let writes = load.write_iops * step;
            let bytes_read = load.read_iops * load.read_kb * 1024.0 * step;
            let bytes_written = load.write_iops * load.write_kb * 1024.0 * step;
            let read_time_s = reads * resp.read_ms / 1000.0;
            let write_time_s = writes * resp.write_ms / 1000.0;
            values.extend([
                reads,
                writes,
                bytes_read,
                bytes_written,
                read_time_s,
                write_time_s,
                resp.read_ms,
                resp.write_ms,
                reads * load.sequential_fraction,
                writes * load.sequential_fraction,
                reads * load.sequential_fraction * cache_hit_fraction,
                writes * load.sequential_fraction * 0.05,
                reads + writes,
                resp.disk_utilization,
            ]);
            if let Some(p) = pool {
                let pool = &mut self.pools[p];
                let raid = pool.pool.raid;
                pool.acc[0] += reads * raid.read_amplification();
                pool.acc[1] += writes * raid.write_amplification();
                pool.acc[2] += bytes_read;
                pool.acc[3] += bytes_written;
                pool.acc[4] += read_time_s;
                pool.acc[5] += write_time_s;
            }
            total_bytes += bytes_read + bytes_written;
            total_ios += reads + writes;
        }

        // Pools and their disks (back-end view).
        for pool in &self.pools {
            let acc = pool.acc;
            let disks = self.live_disks(pool);
            let pool_util = if disks.is_empty() {
                1.0
            } else {
                disks.iter().map(|&(_, first)| self.pools[first].util).sum::<f64>() / disks.len() as f64
            };
            values.extend([acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[0] + acc[1], pool_util]);
            let n = disks.len().max(1) as f64;
            for &(_, first) in disks {
                values.extend([
                    acc[0] / n,
                    acc[1] / n,
                    acc[2] / n,
                    acc[3] / n,
                    acc[4] / n,
                    acc[5] / n,
                    (acc[0] + acc[1]) / n,
                    self.pools[first].util,
                ]);
            }
        }

        // Subsystems: aggregate of every pool.
        for _ in &self.subsystems {
            values.extend([total_ios, total_bytes * 0.5, total_bytes * 0.5]);
        }

        // Fabric: split bytes evenly across switches; errors stay at zero.
        let n_switches = self.switches.len().max(1) as f64;
        for _ in &self.switches {
            let bytes = total_bytes / n_switches / 2.0;
            let packets = total_ios / n_switches;
            values.extend([bytes, bytes, packets, packets, 0.0, 0.0, 0.0, 0.0]);
        }

        // HBAs: traffic of the volumes mapped to their server.
        for (_, slots) in &self.hbas {
            let mut bytes = 0.0;
            let mut ios = 0.0;
            for &slot in slots {
                let load = self.load[slot];
                bytes += (load.read_iops * load.read_kb + load.write_iops * load.write_kb) * 1024.0 * step;
                ios += load.total_iops() * step;
            }
            values.extend([bytes / 2.0, bytes / 2.0, ios / 2.0, ios / 2.0, 0.0, 0.0]);
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
    use diads_monitor::{Interner, MetricStore};
    use std::sync::Arc;

    fn window(start: u64, secs: u64) -> TimeRange {
        TimeRange::with_duration(Timestamp::new(start), Duration::from_secs(secs))
    }

    fn quiet_sim() -> SanSimulator {
        SanSimulator::new(paper_testbed())
    }

    /// Utilisation of one disk at an instant; 0 for a failed, unknown or unpooled
    /// disk, which no pool lists as live.
    fn disk_utilization(sim: &SanSimulator, disk: &str, t: Timestamp, extra: &[VolumeLoad]) -> f64 {
        let mut index = ModelIndex::new(sim, extra);
        index.evaluate(t);
        index.disks.iter().find(|&&(d, _)| d == disk).map_or(0.0, |&(_, first)| index.pools[first].util)
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

    /// The order in which `record_metrics` interns its series, which a store's
    /// iteration and `delta_since` follow but its content fingerprint does not see.
    /// One LUN mapping names a volume the topology lacks, so an HBA sums a load
    /// that only an extra load gives.
    #[test]
    fn record_metrics_intern_order_is_pinned() {
        let (mut sim, mut extra) = pinned_sim();
        sim.topology_mut().zoning.lun_mapping.map("V0", "db-server");
        extra.push(VolumeLoad::new("V0", IoProfile::oltp(90.0, 30.0), window(600, 1_800)));
        let record = |range: TimeRange| {
            let interner = Arc::new(Interner::new());
            let mut store = MetricStore::with_interner(Arc::clone(&interner));
            let mut sampler =
                IntervalSampler::new(Duration::from_mins(5), NoiseModel::Gaussian { sigma: 0.05 }, 11);
            sim.record_metrics(range, &extra, &mut sampler, &mut store);
            sampler.flush(&mut store);
            (interner, store)
        };

        let (_, store) = record(window(0, 3_600));
        let mut got: Vec<String> = Vec::new();
        for (key, _) in store.iter() {
            let (component, metric) = store.resolve(key);
            match got.last_mut() {
                Some(line) if line.starts_with(&format!("{component} ")) => {
                    line.push_str(&format!(",{metric}"))
                }
                _ => got.push(format!("{component} {metric}")),
            }
        }
        const VOLUME: &str = "readIO,writeIO,bytesRead,bytesWritten,readTime,writeTime,readRespMs,\
                              writeRespMs,seqReadReqs,seqWriteReqs,seqReadHits,contaminatingWrites,\
                              totalIOs,utilization";
        const BACK_END: &str =
            "readIO,writeIO,bytesRead,bytesWritten,readTime,writeTime,totalIOs,utilization";
        const SUBSYSTEM: &str = "bytesRead,bytesWritten,totalIOs";
        const SWITCH: &str =
            "bytesTx,bytesRx,packetsTx,packetsRx,errorFrames,crcErrors,linkFailures,dumpedFrames";
        const HBA: &str = "bytesTx,bytesRx,packetsTx,packetsRx,errorFrames,crcErrors";
        let mut expected: Vec<String> =
            ["V1", "V2", "V3", "V4", "Vprime"].iter().map(|v| format!("volume:{v} {VOLUME}")).collect();
        // P1 without its failed disk ds-02, then P2.
        for component in [
            "pool:P1",
            "disk:ds-01",
            "disk:ds-03",
            "disk:ds-04",
            "pool:P2",
            "disk:ds-05",
            "disk:ds-06",
            "disk:ds-07",
            "disk:ds-08",
            "disk:ds-09",
            "disk:ds-10",
        ] {
            expected.push(format!("{component} {BACK_END}"));
        }
        expected.push(format!("subsystem:DS6000 {SUBSYSTEM}"));
        expected.push(format!("fc-switch:fc-switch-core {SWITCH}"));
        expected.push(format!("fc-switch:fc-switch-edge {SWITCH}"));
        expected.push(format!("hba:app-server-hba0 {HBA}"));
        expected.push(format!("hba:db-server-hba0 {HBA}"));
        assert_eq!(got, expected);
        assert_eq!((store.content_fingerprint(), store.point_count()), (10324334190384104451, 2268));

        let (interner, empty) = record(TimeRange::new(Timestamp::new(600), Timestamp::new(600)));
        assert_eq!(empty.point_count(), 0);
        let probe = interner.intern_component(&ComponentId::volume("probe"));
        assert_eq!(probe.index(), 0, "an empty range interns no component");
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
