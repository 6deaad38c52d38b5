//! Diagnosis-as-a-service: the continuous re-diagnosis loop over a small tenant
//! fleet, with a live subscriber on the typed event bus and a per-tenant
//! cancellation round-trip.
//!
//! The service owns one shared engine and K tenant testbeds; each
//! cycle records a probe batch into the tenant's metric store, consults the
//! watermark policy, streams an incremental re-diagnosis through the bounded
//! event channel, derives remediation candidates, and re-seals. A subscriber
//! sees every tenant's `StageStarted`/`StageCompleted`/`CausesRanked`/
//! `RunCompleted` sequence as it happens; a cancelled tenant stops at its next
//! stage boundary and resumes losslessly.
//!
//! Run with `cargo run --release --example service_loop`.

use diads::inject::scenarios::{scenario_1, scenario_3, ScenarioTimeline};
use diads::service::{DiagnosisService, ServiceConfig, ServiceEvent};

fn main() {
    let timeline = ScenarioTimeline::short();
    let scenarios = vec![scenario_1(timeline), scenario_3(timeline)];

    println!("=== Building the service: {} tenants, one shared engine ===\n", scenarios.len());
    let service = DiagnosisService::new(&scenarios, ServiceConfig::default());

    // Subscribe before running: a bounded queue (publishes beyond its capacity
    // are dropped — counted — rather than ever stalling a diagnosis).
    let rx = service.hub().subscribe(4096);

    println!("=== Running 8 service cycles per tenant ===\n");
    service.run_cycles(8, 1);

    let events: Vec<ServiceEvent> = rx.try_iter().collect();
    println!("Observed {} events on the bus; the first diagnosed cycle of tenant 0:", events.len());
    let first_cycle = events.iter().find(|e| e.tenant == 0).map(|e| e.cycle);
    for e in events.iter().filter(|e| e.tenant == 0 && Some(e.cycle) == first_cycle) {
        println!("  [tenant {} cycle {}] {}", e.tenant, e.cycle, e.event.kind());
    }

    println!("\n=== Cancelling tenant 1, running 3 more cycles, resuming ===\n");
    service.cancel_tenant(1);
    service.run_cycles(3, 1);
    let cancelled = service.stats().cancelled_cycles;
    service.resume_tenant(1);
    service.run_cycles(1, 1);
    println!("Cancelled cycles while paused: {cancelled}");
    println!(
        "Tenant 1 report after resume covers the full store again: {} causes",
        service.last_report(1).map(|r| r.causes.len()).unwrap_or(0)
    );

    println!("\n=== Service stats snapshot ===\n{}", service.stats().to_json());
}
