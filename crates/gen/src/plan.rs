//! [`GenPlan`]: the declarative, replayable description of one generated
//! scenario, with hand-rolled JSON in the style of
//! [`diads_core::diagnosis::DiagnosisReport::to_json`] (zero external deps) and
//! a deterministic lowering onto [`ScenarioComposer`].

use diads_core::jsonio::{Json, Writer};
use diads_core::ConfidenceLevel;
use diads_db::DbConfig;
use diads_inject::vocabulary::kind_info;
use diads_inject::{Fault, Scenario, ScenarioComposer, ScenarioTimeline};
use diads_monitor::noise::NoiseModel;
use diads_monitor::{Duration, TimeRange, Timestamp};
use diads_san::workload::{BurstPattern, IoProfile};

/// Which canned run cadence the plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// [`ScenarioTimeline::short`]: 12 satisfactory + 6 unsatisfactory runs.
    Short,
    /// [`ScenarioTimeline::paper_default`]: 30 + 10 runs.
    Paper,
}

impl TimelineKind {
    /// The concrete timeline.
    pub fn timeline(&self) -> ScenarioTimeline {
        match self {
            TimelineKind::Short => ScenarioTimeline::short(),
            TimelineKind::Paper => ScenarioTimeline::paper_default(),
        }
    }

    /// Stable name used in JSON and on the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            TimelineKind::Short => "short",
            TimelineKind::Paper => "paper",
        }
    }

    /// Parses a stable name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "short" => Ok(TimelineKind::Short),
            "paper" => Ok(TimelineKind::Paper),
            other => Err(format!("unknown timeline {other:?} (expected \"short\" or \"paper\")")),
        }
    }

    /// Hours from a fault onset delayed by `delay_hours` to the end of the
    /// simulated period, rounded down — the longest useful fault window.
    pub fn active_hours_after(&self, delay_hours: u64) -> u64 {
        let t = self.timeline();
        let onset = t.fault_time_after(Duration::from_hours(delay_hours));
        let secs = t.end_time().as_secs().saturating_sub(onset.as_secs());
        secs / 3_600
    }
}

/// The collector-noise model of a plan — mirrors
/// [`diads_monitor::noise::NoiseModel`], which does not implement `PartialEq`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseSpec {
    /// No measurement noise.
    None,
    /// Multiplicative Gaussian jitter.
    Gaussian {
        /// Relative standard deviation.
        sigma: f64,
    },
    /// Gaussian jitter plus occasional spikes (scenario-5-style spurious symptoms).
    GaussianWithSpikes {
        /// Relative standard deviation of the background jitter.
        sigma: f64,
        /// Probability that any given sample is a spike.
        spike_prob: f64,
        /// Multiplier applied to spiked samples.
        spike_factor: f64,
    },
}

impl NoiseSpec {
    /// The collector-facing noise model.
    pub(crate) fn to_model(self) -> NoiseModel {
        match self {
            NoiseSpec::None => NoiseModel::None,
            NoiseSpec::Gaussian { sigma } => NoiseModel::Gaussian { sigma },
            NoiseSpec::GaussianWithSpikes { sigma, spike_prob, spike_factor } => {
                NoiseModel::GaussianWithSpikes { sigma, spike_prob, spike_factor }
            }
        }
    }
}

/// One fault overlay of a generated plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlaySpec {
    /// The fault kind — a label registered in
    /// [`diads_inject::vocabulary::FAULT_VOCABULARY`].
    pub kind: String,
    /// Onset delay in hours after the timeline's primary fault time
    /// (independent onsets: overlays need not start together).
    pub onset_delay_hours: u64,
    /// Fault window length in hours; `None` runs to the end of the simulation.
    /// Ignored by instantaneous kinds (index-drop, disk-failure, bulk-dml).
    pub window_hours: Option<u64>,
    /// Relative intensity (1.0 = the handcrafted scenarios' magnitude).
    pub intensity: f64,
}

impl OverlaySpec {
    /// The overlay's active window on `timeline`.
    pub(crate) fn window_on(&self, timeline: &ScenarioTimeline) -> TimeRange {
        let onset = self.onset_on(timeline);
        match self.window_hours {
            None => TimeRange::new(onset, timeline.end_time()),
            Some(h) => TimeRange::with_duration(onset, Duration::from_hours(h)),
        }
    }

    /// The overlay's onset instant on `timeline`.
    pub(crate) fn onset_on(&self, timeline: &ScenarioTimeline) -> Timestamp {
        timeline.fault_time_after(Duration::from_hours(self.onset_delay_hours))
    }

    /// Builds the concrete [`Fault`] this overlay injects on `timeline`.
    ///
    /// Intensity scales each kind's native magnitude knob, anchored so that 1.0
    /// reproduces the handcrafted scenarios: the interloper profile for the
    /// contention kinds, row growth for bulk DML, per-scan waits for locks, and
    /// `random_page_cost` for the config regression (floored so the regressed
    /// plan still beats the index plan and the fault stays a plan change).
    ///
    /// # Panics
    /// Panics on a kind label not registered in the fault vocabulary.
    pub(crate) fn to_fault(&self, timeline: &ScenarioTimeline) -> Fault {
        let window = self.window_on(timeline);
        let at = self.onset_on(timeline);
        let i = self.intensity;
        match self.kind.as_str() {
            "san-misconfiguration" => Fault::SanMisconfiguration {
                pool: "P1".into(),
                new_volume: "Vgen".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::oltp(150.0 * i, 60.0 * i),
                window,
            },
            "external-volume-contention" => Fault::ExternalVolumeContention {
                volume: "V1".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::oltp(150.0 * i, 60.0 * i),
                pattern: BurstPattern::Steady,
                window,
            },
            "bulk-dml" => Fault::BulkDml {
                table: "partsupp".into(),
                row_factor: 1.0 + 0.7 * i,
                new_selectivity: 1.0,
                at,
            },
            "table-lock-contention" => {
                Fault::TableLockContention { table: "partsupp".into(), window, wait_secs_per_scan: 150.0 * i }
            }
            "index-drop" => Fault::IndexDrop { index: "part_type_size_idx".into(), at },
            "config-parameter-change" => {
                let cost = (80.0 * i).max(40.0);
                Fault::ConfigParameterChange {
                    description: format!("random_page_cost: 4 -> {cost}"),
                    new_config: DbConfig::paper_default().with_random_page_cost(cost),
                    at,
                }
            }
            "disk-failure" => Fault::DiskFailure { disk: "ds-02".into(), at },
            "raid-rebuild" => Fault::RaidRebuild { pool: "P1".into(), window },
            other => panic!("OverlaySpec::to_fault: fault kind {other:?} is not in the vocabulary"),
        }
    }

    /// Whether the kind takes effect at an instant (no meaningful window).
    pub fn is_instantaneous(&self) -> bool {
        matches!(self.kind.as_str(), "bulk-dml" | "index-drop" | "disk-failure" | "config-parameter-change")
    }
}

/// The confidence a cause must reach for the completeness oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedCause {
    /// The canonical cause id ([`diads_inject::scenarios::cause_ids`]).
    pub cause_id: String,
    /// Minimum confidence the ranked cause must reach.
    pub min_confidence: ConfidenceLevel,
}

/// A generated scenario plan: everything needed to rebuild the exact same
/// [`Scenario`] (and therefore, with the deterministic testbed, the exact same
/// diagnosis report) on any machine.
#[derive(Debug, Clone, PartialEq)]
pub struct GenPlan {
    /// Stable id; seeds the testbed's deterministic noise streams.
    pub id: String,
    /// The per-plan RNG seed it was drawn from (provenance; replay does not
    /// re-draw).
    pub seed: u64,
    /// Run cadence.
    pub timeline: TimelineKind,
    /// TPC-H scale factor.
    pub scale_factor: f64,
    /// Collector-noise model.
    pub noise: NoiseSpec,
    /// Fault overlays in draw order (the first has onset delay 0).
    pub overlays: Vec<OverlaySpec>,
    /// The completeness oracle's expectations.
    pub expected: Vec<ExpectedCause>,
}

fn confidence_name(level: ConfidenceLevel) -> &'static str {
    match level {
        ConfidenceLevel::High => "high",
        ConfidenceLevel::Medium => "medium",
        ConfidenceLevel::Low => "low",
    }
}

/// Reads an hour count: a finite, non-negative whole number whose length in
/// seconds fits the simulated clock.
fn hours(v: &Json, key: &str) -> Result<u64, String> {
    let h = v.as_f64().ok_or_else(|| format!("plan: overlay {key:?} must be a number"))?;
    if !(h >= 0.0 && h.fract() == 0.0 && h < u64::MAX as f64) {
        return Err(format!("plan: overlay {key:?} must be a non-negative whole number, got {h}"));
    }
    let h = h as u64;
    h.checked_mul(3_600)
        .map(|_| h)
        .ok_or_else(|| format!("plan: overlay {key:?} overflows the simulated clock"))
}

/// A multiplier the generator only ever draws finite and positive.
fn positive(x: f64, key: &str) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("plan: {key:?} must be finite and > 0, got {x}"))
    }
}

/// A noise standard deviation: finite and non-negative.
fn sigma(x: f64) -> Result<f64, String> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("plan: \"sigma\" must be finite and >= 0, got {x}"))
    }
}

/// A probability: in [0, 1].
fn probability(x: f64, key: &str) -> Result<f64, String> {
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("plan: {key:?} must be in [0, 1], got {x}"))
    }
}

fn parse_confidence(s: &str) -> Result<ConfidenceLevel, String> {
    match s {
        "high" => Ok(ConfidenceLevel::High),
        "medium" => Ok(ConfidenceLevel::Medium),
        "low" => Ok(ConfidenceLevel::Low),
        other => Err(format!("unknown confidence {other:?}")),
    }
}

impl GenPlan {
    /// Serializes the plan as one JSON document. `from_json(to_json(p)) == p`
    /// exactly: `u64` fields travel as decimal strings (JSON numbers are f64 and
    /// cannot hold every 64-bit seed) and `f64` fields rely on Rust's
    /// shortest-round-trip formatting.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_object();
        w.string_field("id", &self.id);
        w.string_field("seed", &self.seed.to_string());
        w.string_field("timeline", self.timeline.as_str());
        w.number_field("scale_factor", self.scale_factor);
        w.key("noise");
        w.open_object();
        match self.noise {
            NoiseSpec::None => w.string_field("kind", "none"),
            NoiseSpec::Gaussian { sigma } => {
                w.string_field("kind", "gaussian");
                w.number_field("sigma", sigma);
            }
            NoiseSpec::GaussianWithSpikes { sigma, spike_prob, spike_factor } => {
                w.string_field("kind", "gaussian-with-spikes");
                w.number_field("sigma", sigma);
                w.number_field("spike_prob", spike_prob);
                w.number_field("spike_factor", spike_factor);
            }
        }
        w.close_object();
        w.key("overlays");
        w.open_array();
        for o in &self.overlays {
            w.open_object();
            w.string_field("kind", &o.kind);
            w.number_field("onset_delay_hours", o.onset_delay_hours as f64);
            match o.window_hours {
                None => w.null_field("window_hours"),
                Some(h) => w.number_field("window_hours", h as f64),
            }
            w.number_field("intensity", o.intensity);
            w.close_object();
        }
        w.close_array();
        w.key("expected");
        w.open_array();
        for e in &self.expected {
            w.open_object();
            w.string_field("cause_id", &e.cause_id);
            w.string_field("min_confidence", confidence_name(e.min_confidence));
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }

    /// Parses a plan previously written by [`GenPlan::to_json`].
    pub fn from_json(text: &str) -> Result<GenPlan, String> {
        let doc = Json::parse(text)?;
        Self::from_json_value(&doc)
    }

    /// Parses a plan from an already-parsed JSON value (used by the bugbase,
    /// whose entries embed a plan object).
    pub fn from_json_value(doc: &Json) -> Result<GenPlan, String> {
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("plan: missing string field {key:?}"))
        };
        let id = str_field("id")?;
        let seed: u64 = str_field("seed")?.parse().map_err(|e| format!("plan: bad seed: {e}"))?;
        let timeline = TimelineKind::parse(&str_field("timeline")?)?;
        let scale_factor = positive(
            doc.get("scale_factor")
                .and_then(Json::as_f64)
                .ok_or("plan: missing number field \"scale_factor\"")?,
            "scale_factor",
        )?;
        let noise_doc = doc.get("noise").ok_or("plan: missing \"noise\"")?;
        let noise_num = |key: &str| -> Result<f64, String> {
            noise_doc
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("plan: noise missing number field {key:?}"))
        };
        let noise = match noise_doc.get("kind").and_then(Json::as_str) {
            Some("none") => NoiseSpec::None,
            Some("gaussian") => NoiseSpec::Gaussian { sigma: sigma(noise_num("sigma")?)? },
            Some("gaussian-with-spikes") => NoiseSpec::GaussianWithSpikes {
                sigma: sigma(noise_num("sigma")?)?,
                spike_prob: probability(noise_num("spike_prob")?, "spike_prob")?,
                spike_factor: positive(noise_num("spike_factor")?, "spike_factor")?,
            },
            other => return Err(format!("plan: unknown noise kind {other:?}")),
        };
        let (fault_secs, end_secs) = {
            let t = timeline.timeline();
            (t.fault_time().as_secs(), t.end_time().as_secs())
        };
        let mut overlays = Vec::new();
        for o in doc.get("overlays").and_then(Json::as_array).ok_or("plan: missing \"overlays\"")? {
            let kind =
                o.get("kind").and_then(Json::as_str).ok_or("plan: overlay missing \"kind\"")?.to_string();
            if kind_info(&kind).is_none() {
                return Err(format!("plan: overlay kind {kind:?} is not in the fault vocabulary"));
            }
            let onset_delay_hours = hours(
                o.get("onset_delay_hours").ok_or("plan: overlay missing \"onset_delay_hours\"")?,
                "onset_delay_hours",
            )?;
            let onset_secs = fault_secs
                .checked_add(onset_delay_hours * 3_600)
                .filter(|&onset| onset < end_secs)
                .ok_or_else(|| {
                    format!(
                        "plan: overlay onset {onset_delay_hours} h after the fault time is at or after \
                         the {} timeline's end",
                        timeline.as_str()
                    )
                })?;
            let window_hours = match o.get("window_hours") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let h = hours(v, "window_hours")?;
                    onset_secs
                        .checked_add(h * 3_600)
                        .ok_or("plan: overlay \"window_hours\" overflows the simulated clock")?;
                    Some(h)
                }
            };
            let intensity = positive(
                o.get("intensity").and_then(Json::as_f64).ok_or("plan: overlay missing \"intensity\"")?,
                "intensity",
            )?;
            overlays.push(OverlaySpec { kind, onset_delay_hours, window_hours, intensity });
        }
        let mut expected = Vec::new();
        for e in doc.get("expected").and_then(Json::as_array).ok_or("plan: missing \"expected\"")? {
            expected.push(ExpectedCause {
                cause_id: e
                    .get("cause_id")
                    .and_then(Json::as_str)
                    .ok_or("plan: expected cause missing \"cause_id\"")?
                    .to_string(),
                min_confidence: parse_confidence(
                    e.get("min_confidence")
                        .and_then(Json::as_str)
                        .ok_or("plan: expected cause missing \"min_confidence\"")?,
                )?,
            });
        }
        Ok(GenPlan { id, seed, timeline, scale_factor, noise, overlays, expected })
    }

    /// Lowers the plan onto a concrete [`Scenario`] through the
    /// [`ScenarioComposer`] overlay primitives: each overlay becomes a one-fault
    /// donor scenario on the plan's timeline (carrying its expected cause) and is
    /// merged via [`ScenarioComposer::overlay`], exercising the same rebase and
    /// expectation-merge path the handcrafted compound scenarios use.
    pub fn to_scenario(&self) -> Scenario {
        let timeline = self.timeline.timeline();
        let mut composer =
            ScenarioComposer::new(self.id.clone(), format!("generated plan {}", self.id), timeline)
                .describe(format!(
                    "Generated by diads-gen from seed {} ({} overlay(s)); replay with \
                 gen_scenarios --replay.",
                    self.seed,
                    self.overlays.len()
                ))
                .critical_modules("generated: every injected fault must be attributed, nothing else")
                .scale_factor(self.scale_factor)
                .noise(self.noise.to_model());
        for (idx, overlay) in self.overlays.iter().enumerate() {
            let donor = ScenarioComposer::new(
                format!("{}-overlay-{idx}", self.id),
                format!("overlay {idx}: {}", overlay.kind),
                timeline,
            )
            .fault(overlay.to_fault(&timeline))
            .expect(
                kind_info(&overlay.kind)
                    .unwrap_or_else(|| panic!("unknown fault kind {:?}", overlay.kind))
                    .cause_id,
            )
            .build();
            composer = composer.overlay(&donor);
        }
        composer.build()
    }
}
