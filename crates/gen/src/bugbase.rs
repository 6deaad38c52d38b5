//! The bugbase: replayable JSON records of interesting plans.
//!
//! A bugbase entry pins a plan together with the violation signatures its
//! replay must reproduce — an empty list pins a regression plan that must keep
//! *passing* both oracles. Entries live as one JSON file each under
//! `crates/gen/bugbase/` and are replayed in CI by
//! `gen_scenarios --replay-dir`.

use diads_core::jsonio::{Json, Writer};

use crate::oracle;
use crate::plan::GenPlan;

/// One replayable bugbase record.
#[derive(Debug, Clone, PartialEq)]
pub struct BugbaseEntry {
    /// The plan to replay.
    pub plan: GenPlan,
    /// Sorted oracle-violation signatures replay must reproduce exactly
    /// (empty = the plan must pass).
    pub expected_violations: Vec<String>,
    /// Free-form triage notes (why the entry is pinned).
    pub notes: String,
}

impl BugbaseEntry {
    /// An entry pinning a plan that must keep passing both oracles.
    pub fn passing(plan: GenPlan, notes: impl Into<String>) -> Self {
        BugbaseEntry { plan, expected_violations: Vec::new(), notes: notes.into() }
    }

    /// Serializes the entry as one JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_object();
        w.key("plan");
        let plan_json = self.plan.to_json();
        // The plan serializes itself; splice its document in as the field value.
        let mut out = w.finish();
        out.push_str(&plan_json);
        let mut w = Writer::new();
        w.open_object();
        w.string_array_field("expected_violations", self.expected_violations.iter());
        w.string_field("notes", &self.notes);
        w.close_object();
        let tail = w.finish();
        // `tail` is `{"expected_violations":...,"notes":...}`; merge the two
        // objects into one document.
        out.push(',');
        out.push_str(&tail[1..]);
        out
    }

    /// Parses an entry previously written by [`BugbaseEntry::to_json`]. Also
    /// accepts a bare plan document (no `"plan"` field), which is pinned as a
    /// must-pass entry — so `gen_scenarios --replay` works on plan files the
    /// generator or shrinker printed.
    pub fn from_json(text: &str) -> Result<BugbaseEntry, String> {
        let doc = Json::parse(text)?;
        match doc.get("plan") {
            Some(plan_doc) => {
                let plan = GenPlan::from_json_value(plan_doc)?;
                let expected_violations = doc
                    .get("expected_violations")
                    .and_then(Json::as_array)
                    .ok_or("bugbase entry: missing \"expected_violations\"")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "bugbase entry: non-string violation signature".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let notes = doc.get("notes").and_then(Json::as_str).unwrap_or_default().to_string();
                Ok(BugbaseEntry { plan, expected_violations, notes })
            }
            None => Ok(BugbaseEntry::passing(GenPlan::from_json_value(&doc)?, "")),
        }
    }

    /// Replays the entry: runs the plan through the testbed and both oracles
    /// and compares the violation signatures against the pinned set. `Ok` holds
    /// the signatures observed; `Err` describes the divergence.
    pub fn replay(&self) -> Result<Vec<String>, String> {
        let outcome = oracle::check_plan(&self.plan);
        let got = outcome.signatures();
        let mut expected = self.expected_violations.clone();
        expected.sort();
        expected.dedup();
        if got == expected {
            Ok(got)
        } else {
            Err(format!(
                "plan {}: replay diverged — pinned violations {:?}, observed {:?}",
                self.plan.id, expected, got
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;
    use crate::plan::TimelineKind;

    #[test]
    fn entry_json_round_trips() {
        let plan = Generator::new(7, TimelineKind::Short).plan(0);
        let entry = BugbaseEntry {
            plan,
            expected_violations: vec!["missing:x".into(), "spurious:y".into()],
            notes: "note \"with\" quotes".into(),
        };
        let text = entry.to_json();
        let parsed = BugbaseEntry::from_json(&text).unwrap();
        assert_eq!(parsed, entry);
    }

    /// A one-overlay short-timeline entry with the given raw overlay hour fields.
    fn crafted(onset_delay_hours: &str, window_hours: &str) -> String {
        crafted_plan("san-misconfiguration", onset_delay_hours, window_hours, "1", "10", r#"{"kind":"none"}"#)
    }

    /// A one-overlay short-timeline entry with every raw plan field given.
    fn crafted_plan(
        kind: &str,
        onset_delay_hours: &str,
        window_hours: &str,
        intensity: &str,
        scale_factor: &str,
        noise: &str,
    ) -> String {
        format!(
            "{{\"plan\":{{\"id\":\"crafted\",\"seed\":\"1\",\"timeline\":\"short\",\"scale_factor\":{scale_factor},\
             \"noise\":{noise},\"overlays\":[{{\"kind\":\"{kind}\",\
             \"onset_delay_hours\":{onset_delay_hours},\"window_hours\":{window_hours},\"intensity\":{intensity}}}],\
             \"expected\":[{{\"cause_id\":\"san-misconfiguration-contention\",\"min_confidence\":\"high\"}}]}},\
             \"expected_violations\":[],\"notes\":\"\"}}"
        )
    }

    #[test]
    fn out_of_range_overlay_hours_are_errors_not_panics() {
        assert!(BugbaseEntry::from_json(&crafted("0", "10")).is_ok());
        assert!(BugbaseEntry::from_json(&crafted("0", "null")).is_ok());
        for (onset, window) in [
            ("40", "null"),   // onset past the short timeline's end
            ("1e16", "null"), // hours-to-seconds overflow
            ("-1", "null"),
            ("0.5", "null"),
            ("1e999", "null"),
            ("0", "1e16"),
            ("0", "-2"),
            ("0", "2.5"),
        ] {
            let text = crafted(onset, window);
            assert!(
                BugbaseEntry::from_json(&text).is_err(),
                "onset {onset}, window {window} must be rejected"
            );
        }
    }

    #[test]
    fn out_of_range_plan_numbers_are_errors() {
        let spikes = |sigma: &str, prob: &str, factor: &str| {
            format!(
                r#"{{"kind":"gaussian-with-spikes","sigma":{sigma},"spike_prob":{prob},"spike_factor":{factor}}}"#
            )
        };
        let gaussian = |sigma: &str| format!(r#"{{"kind":"gaussian","sigma":{sigma}}}"#);
        let entry = |kind: &str, intensity: &str, scale_factor: &str, noise: &str| {
            BugbaseEntry::from_json(&crafted_plan(kind, "0", "null", intensity, scale_factor, noise))
        };
        let lock = "table-lock-contention";
        let san = "san-misconfiguration";
        assert!(entry(lock, "1.5", "10", &spikes("0.08", "0.06", "4")).is_ok());
        assert!(entry(san, "0.75", "10", &gaussian("0")).is_ok());
        assert!(entry(san, "1", "10", &spikes("0.02", "0", "4")).is_ok());
        assert!(entry(san, "1", "10", &spikes("0.02", "1", "4")).is_ok());
        for (what, parsed) in [
            ("negative intensity", entry(lock, "-3", "10", &gaussian("0.02"))),
            ("zero intensity", entry(san, "0", "10", &gaussian("0.02"))),
            ("infinite intensity", entry(san, "1e999", "10", &gaussian("0.02"))),
            ("infinite scale factor", entry(san, "1", "1e999", &gaussian("0.02"))),
            ("negative scale factor", entry(san, "1", "-5", &gaussian("0.02"))),
            ("negative sigma", entry(san, "1", "10", &gaussian("-5"))),
            ("infinite sigma", entry(san, "1", "10", &spikes("1e999", "0.06", "4"))),
            ("spike probability over one", entry(san, "1", "10", &spikes("0.02", "5", "4"))),
            ("negative spike probability", entry(san, "1", "10", &spikes("0.02", "-0.1", "4"))),
            ("zero spike factor", entry(san, "1", "10", &spikes("0.02", "0.06", "0"))),
            ("infinite spike factor", entry(san, "1", "10", &spikes("0.02", "0.06", "1e999"))),
        ] {
            assert!(parsed.is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn checked_in_bugbase_entries_parse() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/bugbase");
        let mut parsed = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                BugbaseEntry::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                parsed += 1;
            }
        }
        assert!(parsed > 0, "no bugbase entries under {dir}");
    }

    #[test]
    fn bare_plan_documents_parse_as_must_pass_entries() {
        let plan = Generator::new(7, TimelineKind::Short).plan(1);
        let parsed = BugbaseEntry::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed.plan, plan);
        assert!(parsed.expected_violations.is_empty());
    }
}
