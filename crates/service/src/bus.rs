//! The service's event bus: a bounded, in-tree MPSC fan-out over
//! [`std::sync::mpsc`] — zero external dependencies, never blocking the
//! diagnosis path.
//!
//! Subscribers attach a bounded channel of their chosen capacity
//! ([`EventHub::subscribe`]); the hub publishes with [`std::sync::mpsc::SyncSender::try_send`],
//! so a slow subscriber's full queue **drops** that subscriber's copy of the
//! event (counted in [`EventHub::dropped`]) instead of stalling a tenant's
//! diagnosis cycle. Disconnected subscribers are pruned on the next publish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

use diads_core::{DiagnosisState, EventSink, PipelineEvent};

/// One event on the service bus: which tenant's diagnosis emitted it, during
/// which service cycle, and the underlying pipeline event.
#[derive(Debug, Clone)]
pub struct ServiceEvent {
    /// Index of the tenant (the service's testbed slot) the event belongs to.
    pub tenant: usize,
    /// The service cycle the event was emitted during.
    pub cycle: u64,
    /// The pipeline event itself.
    pub event: PipelineEvent,
}

/// The bounded fan-out hub: every published [`ServiceEvent`] is offered to every
/// live subscriber, dropped per-subscriber on backpressure.
#[derive(Debug, Default)]
pub struct EventHub {
    subscribers: Mutex<Vec<SyncSender<ServiceEvent>>>,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl EventHub {
    /// An empty hub with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a subscriber with a bounded queue of `capacity` events and
    /// returns its receiving end. Events published while the queue is full are
    /// dropped for this subscriber (and counted); dropping the receiver
    /// unsubscribes on the next publish.
    pub fn subscribe(&self, capacity: usize) -> Receiver<ServiceEvent> {
        let (tx, rx) = sync_channel(capacity.max(1));
        self.subscribers.lock().expect("subscriber lock poisoned").push(tx);
        rx
    }

    /// Publishes one event to every subscriber without ever blocking: full
    /// queues drop (counted), disconnected subscribers are pruned.
    pub fn publish(&self, event: ServiceEvent) {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut subscribers = self.subscribers.lock().expect("subscriber lock poisoned");
        if subscribers.is_empty() {
            return;
        }
        subscribers.retain(|tx| match tx.try_send(event.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Total events published (whether or not any subscriber received them).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Per-subscriber event copies dropped on backpressure (a full queue).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of subscribers still attached (as of the last publish).
    #[cfg(test)]
    fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("subscriber lock poisoned").len()
    }
}

/// An [`EventSink`] adapter forwarding every pipeline event of one tenant's
/// diagnosis onto the hub, stamped with the tenant index and service cycle.
/// The evidence ledger is **not** forwarded — events crossing the channel carry
/// only owned data.
pub struct ChannelSink<'a> {
    hub: &'a EventHub,
    tenant: usize,
    cycle: u64,
}

impl<'a> ChannelSink<'a> {
    /// A sink stamping events as `tenant`'s, during `cycle`.
    pub fn new(hub: &'a EventHub, tenant: usize, cycle: u64) -> Self {
        ChannelSink { hub, tenant, cycle }
    }
}

impl EventSink for ChannelSink<'_> {
    fn on_event(&self, event: &PipelineEvent, _state: &DiagnosisState) {
        self.hub.publish(ServiceEvent { tenant: self.tenant, cycle: self.cycle, event: event.clone() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(stage: &str) -> PipelineEvent {
        PipelineEvent::StageStarted { stage: stage.to_string() }
    }

    #[test]
    fn full_queue_drops_without_blocking() {
        let hub = EventHub::new();
        let rx = hub.subscribe(2);
        for i in 0..5 {
            hub.publish(ServiceEvent { tenant: 0, cycle: i, event: started("PD") });
        }
        assert_eq!(hub.published(), 5);
        assert_eq!(hub.dropped(), 3);
        // The two queued events survive, in order.
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn disconnected_subscriber_is_pruned() {
        let hub = EventHub::new();
        let rx = hub.subscribe(4);
        hub.publish(ServiceEvent { tenant: 0, cycle: 0, event: started("PD") });
        drop(rx);
        hub.publish(ServiceEvent { tenant: 0, cycle: 1, event: started("CO") });
        assert_eq!(hub.subscriber_count(), 0);
        // Neither publish counts as a drop: one was delivered, one had no subscriber.
        assert_eq!(hub.dropped(), 0);
    }
}
