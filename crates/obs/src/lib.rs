//! `psb-obs` — the simulator's observability layer.
//!
//! A zero-dependency crate providing:
//!
//! * [`metrics`] — a registry of named counters, log2 histograms and
//!   sampled gauges behind cheap cloneable handles,
//! * [`lifecycle`] — prefetch-lifecycle accounting (predicted → issued →
//!   filled → used / evicted-unused / late),
//! * [`interval`] — per-epoch IPC / miss-rate / accuracy / bus-utilization
//!   time series,
//! * [`trace`] — Chrome trace-event output loadable in Perfetto, one
//!   thread track per stream buffer,
//! * [`json`] — the hand-rolled JSON tree, serializer and parser that
//!   all machine-readable artifacts go through.
//!
//! The [`Obs`] hub ties these together behind one cloneable handle that
//! the simulator owns and threads into the stream engine, predictors,
//! MSHRs, buses and victim cache. Components hold an `Option` of the
//! handle (or of a pre-fetched metric), so a run without observability
//! attached pays nothing on the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-epoch interval time series (IPC, miss rate, accuracy, bus).
pub mod interval;
/// Hand-rolled JSON tree, serializer and parser.
pub mod json;
/// Prefetch-lifecycle accounting and per-block staging events.
pub mod lifecycle;
/// Named counters, log2 histograms and sampled gauges.
pub mod metrics;
/// Prometheus text-exposition rendering of registry snapshots.
pub mod prometheus;
/// Chrome trace-event sink (Perfetto-loadable).
pub mod trace;

pub use interval::{Epoch, IntervalSample, IntervalSampler};
pub use json::Json;
pub use lifecycle::{LifeEvent, LifeStage, LifecycleStats};
pub use metrics::{Counter, Gauge, Hist, Registry, RegistrySnapshot};
pub use trace::TraceSink;

use std::cell::RefCell;
use std::rc::Rc;

/// How many per-block lifecycle records the hub buffers for the
/// simulator's event log before dropping new ones. The event log itself
/// is bounded, so an unbounded staging queue would only waste memory.
const PENDING_CAP: usize = 4096;

#[derive(Debug)]
struct ObsCore {
    registry: Registry,
    lifecycle: LifecycleStats,
    trace: Option<TraceSink>,
    interval: Option<IntervalSampler>,
    pending: Vec<LifeEvent>,
    pending_enabled: bool,
}

/// The central observability handle.
///
/// Cloning is cheap (one `Rc`); all clones share the same registry,
/// lifecycle counters, trace sink and interval sampler. Every method is
/// safe to call whether or not tracing / interval sampling is enabled —
/// disabled sinks simply ignore the call.
///
/// # Example
///
/// ```
/// use psb_obs::Obs;
///
/// let obs = Obs::new();
/// obs.enable_trace(1 << 16);
/// obs.enable_interval(10_000);
/// obs.predicted(100, 0, 0x4000);
/// obs.issued(101, 0, 0x4000, 140);
/// obs.used(150, 0, 0x4000, 0);
/// let life = obs.lifecycle_json();
/// assert_eq!(life.get("used").and_then(|v| v.as_u64()), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct Obs {
    inner: Rc<RefCell<ObsCore>>,
    epoch_hook: Rc<RefCell<Option<EpochHook>>>,
}

/// A callback fired after every closed interval epoch (see
/// [`Obs::set_epoch_hook`]). Boxed so the hub stays `Debug`.
struct EpochHook(Box<dyn FnMut(&Obs)>);

impl std::fmt::Debug for EpochHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EpochHook(..)")
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Creates a hub with an empty registry and no trace/interval sinks.
    pub fn new() -> Obs {
        Obs {
            inner: Rc::new(RefCell::new(ObsCore {
                registry: Registry::new(),
                lifecycle: LifecycleStats::default(),
                trace: None,
                interval: None,
                pending: Vec::new(),
                pending_enabled: false,
            })),
            epoch_hook: Rc::new(RefCell::new(None)),
        }
    }

    // ---- configuration -------------------------------------------------

    /// Turns on Chrome-trace collection, keeping at most `capacity`
    /// events.
    pub fn enable_trace(&self, capacity: usize) {
        self.inner.borrow_mut().trace = Some(TraceSink::new(capacity));
    }

    /// Turns on interval sampling with epochs of `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn enable_interval(&self, every: u64) {
        self.inner.borrow_mut().interval = Some(IntervalSampler::new(every));
    }

    /// Turns on per-block lifecycle staging for the simulator's event
    /// log ([`Obs::drain_life_events`]).
    pub fn enable_lifecycle_log(&self) {
        self.inner.borrow_mut().pending_enabled = true;
    }

    /// True when per-block detail (tracing or lifecycle staging) is on.
    /// Components may cache this at attach time to skip pre-scans that
    /// only feed per-block events.
    pub fn wants_block_events(&self) -> bool {
        let core = self.inner.borrow();
        core.trace.is_some() || core.pending_enabled
    }

    /// Epoch length of the interval sampler, if one is enabled.
    pub fn interval_every(&self) -> Option<u64> {
        self.inner.borrow().interval.as_ref().map(IntervalSampler::every)
    }

    // ---- registry ------------------------------------------------------

    /// A counter handle for `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.borrow_mut().registry.counter(name)
    }

    /// A histogram handle for `name`, created on first use.
    pub fn hist(&self, name: &str) -> Hist {
        self.inner.borrow_mut().registry.hist(name)
    }

    /// A gauge handle for `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.borrow_mut().registry.gauge(name)
    }

    /// Sets counter `name` to an absolute value (end-of-run imports).
    pub fn record(&self, name: &str, value: u64) {
        self.inner.borrow_mut().registry.record(name, value);
    }

    // ---- stream-engine lifecycle hooks ---------------------------------

    /// A stream buffer was (re)allocated to a new stream. `displaced`
    /// counts the not-yet-used entries thrown away by the reallocation.
    pub fn stream_allocated(
        &self,
        now: u64,
        buffer: usize,
        pc: u64,
        confidence: u64,
        displaced: u64,
    ) {
        let mut core = self.inner.borrow_mut();
        core.lifecycle.streams_allocated += 1;
        core.lifecycle.evicted_unused += displaced;
        if let Some(t) = core.trace.as_mut() {
            t.instant(
                "alloc",
                "stream",
                buffer as u64,
                now,
                [("pc", pc), ("confidence", confidence), ("displaced", displaced)],
            );
        }
    }

    /// A block displaced unused at reallocation (per-block detail; the
    /// aggregate count is carried by [`Obs::stream_allocated`]).
    pub fn evicted_unused_block(&self, now: u64, buffer: usize, block_base: u64) {
        let mut core = self.inner.borrow_mut();
        core.push_pending(LifeEvent {
            cycle: now,
            buffer,
            block_base,
            stage: LifeStage::EvictedUnused,
        });
        if let Some(t) = core.trace.as_mut() {
            t.instant("evicted-unused", "prefetch", buffer as u64, now, [("block", block_base)]);
        }
    }

    /// A prediction was accepted into a stream-buffer entry.
    pub fn predicted(&self, now: u64, buffer: usize, block_base: u64) {
        let mut core = self.inner.borrow_mut();
        core.lifecycle.predicted += 1;
        if let Some(t) = core.trace.as_mut() {
            t.instant("predicted", "prefetch", buffer as u64, now, [("block", block_base)]);
        }
    }

    /// A prefetch was issued at `now` and will arrive at `ready`; the
    /// in-flight window becomes a complete (`X`) event on the buffer's
    /// track.
    pub fn issued(&self, now: u64, buffer: usize, block_base: u64, ready: u64) {
        let mut core = self.inner.borrow_mut();
        core.lifecycle.issued += 1;
        if let Some(t) = core.trace.as_mut() {
            t.complete(
                "prefetch",
                "prefetch",
                buffer as u64,
                now,
                ready.saturating_sub(now),
                [("block", block_base)],
            );
        }
    }

    /// `count` prefetched blocks arrived in `buffer` this cycle.
    pub fn filled(&self, now: u64, buffer: usize, count: u64) {
        let _ = (now, buffer);
        self.inner.borrow_mut().lifecycle.filled += count;
    }

    /// A prefetched block arrived (per-block detail for the event log).
    pub fn filled_block(&self, now: u64, buffer: usize, block_base: u64) {
        let mut core = self.inner.borrow_mut();
        core.push_pending(LifeEvent { cycle: now, buffer, block_base, stage: LifeStage::Filled });
    }

    /// A demand access consumed a prefetched block. `late_by` is the
    /// residual fill latency the demand had to wait out (0 for a block
    /// that was already resident).
    pub fn used(&self, now: u64, buffer: usize, block_base: u64, late_by: u64) {
        let mut core = self.inner.borrow_mut();
        core.lifecycle.used += 1;
        if late_by > 0 {
            core.lifecycle.used_late += 1;
            core.lifecycle.late_cycles.add(late_by);
            core.push_pending(LifeEvent { cycle: now, buffer, block_base, stage: LifeStage::Late });
        }
        if let Some(t) = core.trace.as_mut() {
            t.instant(
                "used",
                "demand",
                buffer as u64,
                now,
                [("block", block_base), ("late_by", late_by)],
            );
        }
    }

    /// The demand stream reached an allocated entry before it issued.
    pub fn demand_raced(&self, now: u64, buffer: usize, block_base: u64) {
        let mut core = self.inner.borrow_mut();
        core.lifecycle.demand_raced += 1;
        if let Some(t) = core.trace.as_mut() {
            t.instant("demand-raced", "demand", buffer as u64, now, [("block", block_base)]);
        }
    }

    /// Samples a buffer's occupancy/priority counter track (only
    /// recorded when tracing is enabled).
    pub fn buffer_occupancy(
        &self,
        now: u64,
        buffer: usize,
        ready: u64,
        in_flight: u64,
        priority: u64,
    ) {
        let mut core = self.inner.borrow_mut();
        if let Some(t) = core.trace.as_mut() {
            t.counter(
                "occupancy",
                buffer as u64,
                now,
                [("ready", ready), ("in_flight", in_flight), ("priority", priority)],
            );
        }
    }

    /// Names the trace track of stream buffer `buffer`.
    pub fn name_buffer_track(&self, buffer: usize, name: &str) {
        let mut core = self.inner.borrow_mut();
        if let Some(t) = core.trace.as_mut() {
            t.thread_name(buffer as u64, name);
        }
    }

    // ---- interval sampling ---------------------------------------------

    /// Feeds the interval sampler one cumulative snapshot (no-op when
    /// sampling is disabled). When the sample closes an epoch, the
    /// epoch hook (if any) fires after all internal borrows are
    /// released, so the hook may freely call back into the hub.
    pub fn interval_record(&self, cum: IntervalSample) {
        let closed_epoch = {
            let mut core = self.inner.borrow_mut();
            match core.interval.as_mut() {
                Some(s) => {
                    let before = s.epochs().len();
                    s.record(cum);
                    s.epochs().len() > before
                }
                None => false,
            }
        };
        if closed_epoch {
            self.fire_epoch_hook();
        }
    }

    /// Registers a callback fired once per closed interval epoch, with
    /// every internal borrow released — the hook may read any snapshot
    /// accessor on the hub it is handed. Live-serving front ends hang
    /// their periodic publication here (`psbsim --serve`). Replaces any
    /// previous hook; clones of the hub share one hook.
    pub fn set_epoch_hook(&self, hook: impl FnMut(&Obs) + 'static) {
        *self.epoch_hook.borrow_mut() = Some(EpochHook(Box::new(hook)));
    }

    /// Runs the epoch hook, tolerating a hook that replaces itself.
    fn fire_epoch_hook(&self) {
        let taken = self.epoch_hook.borrow_mut().take();
        if let Some(mut hook) = taken {
            (hook.0)(self);
            let mut slot = self.epoch_hook.borrow_mut();
            if slot.is_none() {
                *slot = Some(hook);
            }
        }
    }

    // ---- draining / output ---------------------------------------------

    /// Takes all staged per-block lifecycle events (oldest first).
    pub fn drain_life_events(&self) -> Vec<LifeEvent> {
        std::mem::take(&mut self.inner.borrow_mut().pending)
    }

    /// Copies out the aggregate lifecycle counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.inner.borrow().lifecycle.clone()
    }

    /// Serializes the lifecycle counters.
    pub fn lifecycle_json(&self) -> Json {
        self.inner.borrow().lifecycle.to_json()
    }

    /// Serializes the metrics registry.
    pub fn registry_json(&self) -> Json {
        self.inner.borrow().registry.to_json()
    }

    /// A consistent, `Send`-able copy of the metrics registry — the
    /// handoff type for a serving thread (see [`Registry::snapshot`]).
    pub fn registry_snapshot(&self) -> metrics::RegistrySnapshot {
        self.inner.borrow().registry.snapshot()
    }

    /// A consistent, `Send`-able copy of the closed interval epochs
    /// (empty when sampling is disabled); never exposes a torn row the
    /// way reading through a live borrow mid-`record` could.
    pub fn epochs_snapshot(&self) -> Vec<Epoch> {
        match self.inner.borrow().interval.as_ref() {
            Some(s) => s.snapshot(),
            None => Vec::new(),
        }
    }

    /// Serializes the interval series (empty array when disabled).
    pub fn epochs_json(&self) -> Json {
        match self.inner.borrow().interval.as_ref() {
            Some(s) => s.to_json(),
            None => Json::arr([]),
        }
    }

    /// Serializes the Chrome trace, if tracing was enabled.
    pub fn trace_json(&self) -> Option<Json> {
        self.inner.borrow().trace.as_ref().map(TraceSink::to_json)
    }
}

impl ObsCore {
    fn push_pending(&mut self, event: LifeEvent) {
        if self.pending_enabled && self.pending.len() < PENDING_CAP {
            self.pending.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        a.predicted(1, 0, 0x100);
        b.predicted(2, 1, 0x200);
        assert_eq!(a.lifecycle_stats().predicted, 2);
    }

    #[test]
    fn late_use_counts_and_stages() {
        let obs = Obs::new();
        obs.enable_lifecycle_log();
        obs.used(50, 2, 0x40, 12);
        obs.used(60, 2, 0x80, 0);
        let s = obs.lifecycle_stats();
        assert_eq!(s.used, 2);
        assert_eq!(s.used_late, 1);
        assert_eq!(s.late_cycles.mean(), 12.0);
        let events = obs.drain_life_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, LifeStage::Late);
        assert_eq!(events[0].block_base, 0x40);
        assert!(obs.drain_life_events().is_empty(), "drain takes ownership");
    }

    #[test]
    fn pending_disabled_by_default() {
        let obs = Obs::new();
        obs.filled_block(1, 0, 0x40);
        assert!(obs.drain_life_events().is_empty());
    }

    #[test]
    fn trace_disabled_hooks_are_noops() {
        let obs = Obs::new();
        assert!(!obs.wants_block_events());
        obs.issued(10, 0, 0x40, 50);
        obs.buffer_occupancy(10, 0, 1, 1, 3);
        assert!(obs.trace_json().is_none());
        assert_eq!(obs.lifecycle_stats().issued, 1);
    }

    #[test]
    fn trace_records_complete_event_for_issue() {
        let obs = Obs::new();
        obs.enable_trace(64);
        assert!(obs.wants_block_events());
        obs.name_buffer_track(3, "stream-buffer-3");
        obs.issued(10, 3, 0x40, 46);
        let json = obs.trace_json().unwrap();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_u64), Some(36));
        assert_eq!(events[1].get("tid").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn epoch_hook_fires_per_closed_epoch_and_may_reenter() {
        let obs = Obs::new();
        obs.enable_interval(100);
        let fired = Rc::new(Cell::new(0u32));
        let seen_epochs = Rc::new(Cell::new(0usize));
        let f = fired.clone();
        let s = seen_epochs.clone();
        obs.set_epoch_hook(move |hub: &Obs| {
            f.set(f.get() + 1);
            // Re-entering the hub from the hook must not panic on a
            // RefCell borrow — this is the serving publish path.
            s.set(hub.epochs_snapshot().len());
            let _ = hub.registry_snapshot();
        });
        obs.interval_record(IntervalSample { cycle: 100, committed: 10, ..Default::default() });
        obs.interval_record(IntervalSample { cycle: 200, committed: 30, ..Default::default() });
        // A record that closes no epoch must not fire the hook.
        obs.interval_record(IntervalSample { cycle: 200, committed: 30, ..Default::default() });
        assert_eq!(fired.get(), 2);
        assert_eq!(seen_epochs.get(), 2);
    }

    #[test]
    fn epoch_hook_absent_or_sampling_disabled_is_a_noop() {
        let obs = Obs::new();
        // No sampler: nothing to close, nothing to fire.
        obs.set_epoch_hook(|_| panic!("must not fire without a sampler"));
        obs.interval_record(IntervalSample { cycle: 50, committed: 5, ..Default::default() });
        // Sampler without a hook: records fine.
        let plain = Obs::new();
        plain.enable_interval(10);
        plain.interval_record(IntervalSample { cycle: 10, committed: 1, ..Default::default() });
        assert_eq!(plain.epochs_snapshot().len(), 1);
    }

    #[test]
    fn interval_plumbs_through_hub() {
        let obs = Obs::new();
        assert_eq!(obs.interval_every(), None);
        obs.enable_interval(500);
        assert_eq!(obs.interval_every(), Some(500));
        obs.interval_record(IntervalSample { cycle: 500, committed: 250, ..Default::default() });
        let epochs = obs.epochs_json();
        let arr = epochs.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("ipc").and_then(Json::as_f64), Some(0.5));
    }
}
