//! Integration tests for APG construction and annotation over a full scenario run
//! (Figure 1's structure on live monitoring data), plus monitoring-coverage checks
//! against the Figure-4 catalog.

use std::collections::{BTreeMap, BTreeSet};

use diads::core::testbed::{DB_INSTANCE, DB_SERVER};
use diads::core::Testbed;
use diads::db::{OperatorId, Plan, PlanNode};
use diads::inject::scenarios::{all_scenarios, scenario_1, ScenarioTimeline};
use diads::monitor::catalog::metrics_for_component;
use diads::monitor::{ComponentId, ComponentKind, MetricName};
use diads::san::path as san_path;

#[test]
fn apg_for_figure1_plan_has_the_paper_structure() {
    let testbed = Testbed::paper_default(1.0);
    let plan = testbed.query.candidates[0].clone();
    let apg = testbed.build_apg(&plan);

    // 25 operators, 9 leaves, 2 on V1, 7 on V2.
    assert_eq!(apg.plan.operator_count(), 25);
    assert_eq!(apg.plan.leaves().len(), 9);
    assert_eq!(apg.leaves_on_volume("V1").len(), 2);
    assert_eq!(apg.leaves_on_volume("V2").len(), 7);

    // The inner path of a V2 leaf contains exactly the Figure-1 chain.
    let part_leaf = apg.leaves_on_volume("V2")[0];
    let kinds: Vec<ComponentKind> = apg.inner_path(part_leaf).iter().map(|c| c.kind).collect();
    for expected in [
        ComponentKind::Server,
        ComponentKind::Hba,
        ComponentKind::FcSwitch,
        ComponentKind::StorageSubsystem,
        ComponentKind::StoragePool,
        ComponentKind::StorageVolume,
        ComponentKind::Disk,
        ComponentKind::DatabaseInstance,
        ComponentKind::Tablespace,
    ] {
        assert!(kinds.contains(&expected), "missing {expected:?}");
    }
}

#[test]
fn annotations_slice_monitoring_data_to_the_operator_window() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let run = &outcome.history.unsatisfactory()[0].record;
    let o8 = diads::db::OperatorId(8);
    let annotation = apg.annotate(&outcome.testbed.store, run, o8);
    assert!(!annotation.is_empty());
    // The annotation covers V1's storage metrics during the operator's window.
    assert!(annotation.iter().any(|(c, m, values)| c == &ComponentId::volume("V1")
        && *m == MetricName::ReadIo
        && !values.is_empty()));
    // Unknown operators annotate to nothing.
    assert!(apg.annotate(&outcome.testbed.store, run, diads::db::OperatorId(99)).is_empty());
}

#[test]
fn every_figure4_metric_class_is_collected_on_the_default_testbed() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let store = &outcome.testbed.store;

    // For each monitored component kind that exists in the testbed, at least half of
    // its catalog metrics have been recorded (the executor/SAN engine do not emit every
    // single counter, but the coverage must be broad).
    let expectations = [
        (ComponentKind::StorageVolume, 0.8),
        (ComponentKind::StoragePool, 0.5),
        (ComponentKind::Disk, 0.5),
        (ComponentKind::FcSwitch, 0.5),
        (ComponentKind::PlanOperator, 1.0),
        (ComponentKind::DatabaseInstance, 0.6),
    ];
    for (kind, min_fraction) in expectations {
        let components = store.components_of_kind(kind);
        assert!(!components.is_empty(), "no {kind:?} components recorded");
        let component = &components[0];
        let expected = metrics_for_component(kind);
        let recorded = store.metrics_of(component);
        let covered = expected.iter().filter(|m| recorded.contains(m)).count();
        let fraction = covered as f64 / expected.len() as f64;
        assert!(
            fraction >= min_fraction,
            "{kind:?}: only {covered}/{} catalog metrics recorded for {component}",
            expected.len()
        );
    }
}

#[test]
fn configuration_events_of_the_misconfiguration_are_on_the_timeline() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let events = outcome.testbed.all_events();
    let labels: Vec<String> = events.all().iter().map(|e| e.kind.label()).collect();
    assert!(labels.contains(&"volume-created".to_string()));
    assert!(labels.contains(&"zoning-changed".to_string()));
    assert!(labels.contains(&"lun-mapping-changed".to_string()));
    // All of them land before the first unsatisfactory run.
    let first_unsat = outcome.history.first_unsatisfactory_start().unwrap();
    assert!(events.all().iter().all(|e| e.time <= first_unsat));
}

#[test]
fn apg_render_is_a_usable_figure1_substitute() {
    let testbed = Testbed::paper_default(1.0);
    let apg = testbed.build_apg(&testbed.query.candidates[0]);
    let text = apg.render();
    // The rendering names every operator and the full storage path of the V1 leaves.
    for op in 1..=25 {
        assert!(text.contains(&format!("O{op} ")), "missing O{op}");
    }
    assert!(text.contains("pool:P1"));
    assert!(text.contains("pool:P2"));
    assert!(text.contains("disk:ds-10"));
}

/// Per-operator (inner path, outer path) and per-leaf volume, as a reference.
type ReferencePaths =
    (BTreeMap<OperatorId, (Vec<ComponentId>, Vec<ComponentId>)>, BTreeMap<OperatorId, String>);

/// The straightforward APG path derivation `Apg::build` must reproduce: every leaf's
/// paths from its table, then every non-leaf's first-occurrence union of the database
/// components and the paths already derived for its subtree, in pre-order.
fn reference_paths(testbed: &Testbed, plan: &Plan) -> ReferencePaths {
    fn dedup(v: &mut Vec<ComponentId>) {
        let mut seen = BTreeSet::new();
        v.retain(|c| seen.insert(c.clone()));
    }
    let (catalog, topology, workloads) = (&testbed.catalog, testbed.san.topology(), testbed.san.workloads());
    let db =
        vec![ComponentId::new(ComponentKind::DatabaseInstance, DB_INSTANCE), ComponentId::server(DB_SERVER)];
    let mut paths: BTreeMap<OperatorId, (Vec<ComponentId>, Vec<ComponentId>)> = BTreeMap::new();
    let mut volumes = BTreeMap::new();
    for leaf in plan.leaves() {
        let table = leaf.table.as_deref().unwrap_or_default();
        let mut inner = db.clone();
        if let Some(t) = catalog.table(table) {
            inner.push(ComponentId::tablespace(t.tablespace.clone()));
        }
        let mut outer = Vec::new();
        if let Some(volume) = catalog.volume_of_table(table) {
            inner.extend(san_path::inner_path(topology, DB_SERVER, &volume));
            outer = san_path::outer_path(topology, workloads, &volume);
            volumes.insert(leaf.id, volume);
        }
        dedup(&mut inner);
        dedup(&mut outer);
        paths.insert(leaf.id, (inner, outer));
    }
    for op in plan.operators() {
        if op.kind.is_leaf() {
            continue;
        }
        let mut inner = db.clone();
        let mut outer = Vec::new();
        for descendant in plan.subtree_of(op.id) {
            if let Some((i, o)) = paths.get(&descendant) {
                inner.extend(i.iter().cloned());
                outer.extend(o.iter().cloned());
            }
        }
        dedup(&mut inner);
        dedup(&mut outer);
        paths.insert(op.id, (inner, outer));
    }
    (paths, volumes)
}

/// `Apg::render` over the reference paths.
fn reference_render(query: &str, plan: &Plan, paths: &ReferencePaths) -> String {
    fn node(n: &PlanNode, depth: usize, paths: &ReferencePaths, out: &mut String) {
        let indent = "  ".repeat(depth);
        let target = match (&n.table, &n.index) {
            (Some(t), Some(i)) => format!(" on {t} using {i}"),
            (Some(t), None) => format!(" on {t}"),
            _ => String::new(),
        };
        out.push_str(&format!("{indent}{} {}{}\n", n.id, n.kind, target));
        if n.kind.is_leaf() {
            let (inner, outer) = &paths.0[&n.id];
            let storage: Vec<String> = inner
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
            let outer: Vec<String> = outer.iter().map(|c| c.to_string()).collect();
            if !outer.is_empty() {
                out.push_str(&format!("{indent}    ~~ outer: {}\n", outer.join(", ")));
            }
        }
        for child in &n.children {
            node(child, depth + 1, paths, out);
        }
    }
    let mut out = format!("Annotated Plan Graph for {query} (server {DB_SERVER})\n");
    node(&plan.root, 0, paths, &mut out);
    out
}

#[test]
fn apg_build_matches_the_reference_derivation_on_every_scenario_plan() {
    for scenario in all_scenarios() {
        let outcome = Testbed::run_scenario(&scenario);
        let testbed = &outcome.testbed;
        let mut plans = testbed.query.candidates.clone();
        plans.push(outcome.diagnosed_plan());
        for plan in &plans {
            let apg = testbed.build_apg(plan);
            let reference = reference_paths(testbed, plan);
            let operators = plan.operators();
            assert_eq!(
                reference.0.len(),
                operators.len(),
                "{}/{}: operator ids are unique",
                scenario.id,
                plan.name
            );
            for op in operators {
                let (inner, outer) = &reference.0[&op.id];
                let at = format!("{}/{} {}", scenario.id, plan.name, op.id);
                assert_eq!(apg.inner_path(op.id), inner.as_slice(), "{at}: inner path");
                assert_eq!(apg.outer_path(op.id), outer.as_slice(), "{at}: outer path");
                assert_eq!(apg.volume_of(op.id), reference.1.get(&op.id).map(String::as_str), "{at}: volume");
            }
            assert_eq!(
                apg.render(),
                reference_render(&testbed.query.name, plan, &reference),
                "{}/{}: render",
                scenario.id,
                plan.name
            );
        }
    }
}
