//! Deterministic fault injection for exercising the fault-tolerance paths.
//!
//! Training-side faults (NaN losses, worker panics, simulated crashes) are
//! described by a [`FaultPlan`] — explicit `(epoch, batch[, shard])`
//! coordinates, optionally drawn from a seed via [`FaultPlan::random`] — and
//! armed by wrapping the plan in a [`FaultInjector`]. Each fault fires
//! exactly once: the injector removes a coordinate when it fires, so a
//! rolled-back epoch replays cleanly and a recovery path can be asserted to
//! actually recover. Tests arm an injector on a trainer with the hidden
//! `Trainer::inject_faults` hook; an unarmed trainer (the default
//! everywhere) makes every check a no-op.
//!
//! Storage-side faults (truncated checkpoints, bit flips, interrupted
//! writes) are plain file-mangling helpers intended for tests.
//!
//! Everything is deterministic: coordinates are data, [`FaultPlan::random`]
//! derives them from a caller-provided seed, and nothing consults wall-clock
//! time or OS randomness.

use std::collections::HashSet;
use std::hash::Hash;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where and which faults to inject, as explicit coordinates.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Poison the loss of these `(epoch, batch)` minibatches with NaN after
    /// the forward/backward pass, driving the divergence-rollback path.
    pub nan_loss_at: Vec<(usize, usize)>,
    /// Panic inside the worker running shard `s` of `(epoch, batch, s)`,
    /// driving the containment-and-retry path.
    pub panic_at: Vec<(usize, usize, usize)>,
    /// Abort training (simulating a `SIGKILL` mid-epoch) when reaching this
    /// `(epoch, batch)`, driving the checkpoint/resume path.
    pub crash_at: Option<(usize, usize)>,
}

impl FaultPlan {
    /// Draw a plan from `seed`: each of the first `epochs × batches`
    /// minibatch coordinates gets a NaN loss with probability `nan_rate`
    /// and a shard-0 worker panic with probability `panic_rate`.
    pub fn random(
        seed: u64,
        epochs: usize,
        batches: usize,
        nan_rate: f64,
        panic_rate: f64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::default();
        for e in 0..epochs {
            for b in 0..batches {
                if rng.gen_bool(nan_rate) {
                    plan.nan_loss_at.push((e, b));
                }
                if rng.gen_bool(panic_rate) {
                    plan.panic_at.push((e, b, 0));
                }
            }
        }
        plan
    }
}

/// Planned faults keyed by `K`, each of which fires at most once, and the
/// log of those that fired. Both injectors keep one.
#[derive(Debug)]
struct TakeOnce<K> {
    planned: Mutex<HashSet<K>>,
    fired: Mutex<Vec<String>>,
}

impl<K: Eq + Hash> TakeOnce<K> {
    fn new(planned: impl IntoIterator<Item = K>) -> Self {
        Self {
            planned: Mutex::new(planned.into_iter().collect()),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// Whether `fault` was planned and has not fired yet. Consumes it and
    /// logs `describe()` if so.
    fn take(&self, fault: K, describe: impl FnOnce() -> String) -> bool {
        let hit = self
            .planned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&fault);
        if hit {
            self.fired
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(describe());
        }
        hit
    }

    fn pending(&self) -> usize {
        self.planned.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn fired(&self) -> Vec<String> {
        self.fired.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// A training fault's coordinates.
#[derive(Debug, PartialEq, Eq, Hash)]
enum TrainFault {
    NanLoss(usize, usize),
    Panic(usize, usize, usize),
    Crash(usize, usize),
}

/// An armed [`FaultPlan`]. Thread-safe (workers consult it concurrently);
/// every fault fires at most once.
#[derive(Debug)]
pub struct FaultInjector {
    faults: TakeOnce<TrainFault>,
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let nan = plan
            .nan_loss_at
            .into_iter()
            .map(|(e, b)| TrainFault::NanLoss(e, b));
        let panics = plan
            .panic_at
            .into_iter()
            .map(|(e, b, s)| TrainFault::Panic(e, b, s));
        let crash = plan.crash_at.map(|(e, b)| TrainFault::Crash(e, b));
        Self {
            faults: TakeOnce::new(nan.chain(panics).chain(crash)),
        }
    }

    /// Should minibatch `(epoch, batch)`'s loss be poisoned? Consumes the
    /// fault.
    pub fn take_nan_loss(&self, epoch: usize, batch: usize) -> bool {
        self.faults.take(TrainFault::NanLoss(epoch, batch), || {
            format!("nan_loss epoch={epoch} batch={batch}")
        })
    }

    /// Should the worker running `(epoch, batch, shard)` panic? Consumes the
    /// fault.
    pub fn take_panic(&self, epoch: usize, batch: usize, shard: usize) -> bool {
        self.faults
            .take(TrainFault::Panic(epoch, batch, shard), || {
                format!("worker_panic epoch={epoch} batch={batch} shard={shard}")
            })
    }

    /// Should training abort (simulated kill) at `(epoch, batch)`? Consumes
    /// the fault.
    pub fn take_crash(&self, epoch: usize, batch: usize) -> bool {
        self.faults.take(TrainFault::Crash(epoch, batch), || {
            format!("crash epoch={epoch} batch={batch}")
        })
    }

    /// Human-readable log of every fault that fired, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.faults.fired()
    }

    /// Number of planned faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.faults.pending()
    }
}

// ---------------------------------------------------------------------------
// serving faults
// ---------------------------------------------------------------------------

/// Faults for the serving chaos harness, addressed by a worker's global
/// *scheduler-tick* counter (each tick is one coalesced batched step across
/// every in-flight request). Deterministic like [`FaultPlan`]: coordinates
/// are data, and [`ServeFaultPlan::random`] derives them from a seed.
#[derive(Debug, Clone, Default)]
pub struct ServeFaultPlan {
    /// Sleep `slow_ms` inside these ticks before stepping, simulating a
    /// stalled kernel / noisy neighbor — drives mid-decode deadline expiry.
    pub slow_at: Vec<u64>,
    /// Milliseconds each slow tick sleeps.
    pub slow_ms: u64,
    /// Panic inside these ticks (after stepping begins), driving the worker
    /// containment-and-rebuild path.
    pub panic_at: Vec<u64>,
    /// Poison the step's log-probabilities with NaN at these ticks,
    /// simulating a corrupted session — drives the typed transient-fault
    /// retry path.
    pub poison_at: Vec<u64>,
}

impl ServeFaultPlan {
    /// Draw a plan from `seed` over the first `ticks` scheduler ticks: each
    /// tick independently goes slow / panics / is poisoned with the given
    /// rates.
    pub fn random(
        seed: u64,
        ticks: u64,
        slow_rate: f64,
        panic_rate: f64,
        poison_rate: f64,
        slow_ms: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ServeFaultPlan {
            slow_ms,
            ..Self::default()
        };
        for t in 0..ticks {
            if rng.gen_bool(slow_rate) {
                plan.slow_at.push(t);
            }
            if rng.gen_bool(panic_rate) {
                plan.panic_at.push(t);
            }
            if rng.gen_bool(poison_rate) {
                plan.poison_at.push(t);
            }
        }
        plan
    }
}

/// A serving fault's scheduler tick.
#[derive(Debug, PartialEq, Eq, Hash)]
enum ServeFault {
    Slow(u64),
    Panic(u64),
    Poison(u64),
}

/// An armed [`ServeFaultPlan`]. Thread-safe; every fault fires at most once
/// (so a retried request replays cleanly and recovery can be asserted to
/// actually recover).
#[derive(Debug)]
pub struct ServeFaultInjector {
    faults: TakeOnce<ServeFault>,
    slow_ms: u64,
}

impl ServeFaultInjector {
    /// Arm a plan.
    pub fn new(plan: ServeFaultPlan) -> Self {
        let slow = plan.slow_at.into_iter().map(ServeFault::Slow);
        let panics = plan.panic_at.into_iter().map(ServeFault::Panic);
        let poisons = plan.poison_at.into_iter().map(ServeFault::Poison);
        Self {
            faults: TakeOnce::new(slow.chain(panics).chain(poisons)),
            slow_ms: plan.slow_ms,
        }
    }

    /// Milliseconds a slow tick should stall, if tick `tick` was planned
    /// slow. Consumes the fault. The caller performs the sleep so the
    /// injector itself stays time-free.
    pub fn take_slow(&self, tick: u64) -> Option<u64> {
        let ms = self.slow_ms;
        self.faults
            .take(ServeFault::Slow(tick), || {
                format!("slow_step tick={tick} ms={ms}")
            })
            .then_some(ms)
    }

    /// Should the worker panic inside tick `tick`? Consumes the fault.
    pub fn take_panic(&self, tick: u64) -> bool {
        self.faults.take(ServeFault::Panic(tick), || {
            format!("worker_panic tick={tick}")
        })
    }

    /// Should tick `tick`'s step output be poisoned with NaN? Consumes the
    /// fault.
    pub fn take_poison(&self, tick: u64) -> bool {
        self.faults.take(ServeFault::Poison(tick), || {
            format!("poisoned_step tick={tick}")
        })
    }

    /// Human-readable log of every fault that fired, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.faults.fired()
    }

    /// Number of planned faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.faults.pending()
    }
}

// ---------------------------------------------------------------------------
// feed faults
// ---------------------------------------------------------------------------

use crate::livetraffic::{TrafficEvent, TrafficEventKind};

/// Delivery faults for a live-traffic event stream, as positions in the
/// clean (producer-ordered) stream. Deterministic like the other plans:
/// coordinates are data and [`FeedFaultPlan::random`] derives them from a
/// seed. Applied with [`FeedFaultPlan::mangle`], which turns a clean stream
/// into one with redeliveries, adjacent reorderings, and past-horizon
/// stragglers — exactly the faults `VersionedTraffic::apply` must absorb
/// without diverging from the clean stream's final state.
#[derive(Debug, Clone, Default)]
pub struct FeedFaultPlan {
    /// Redeliver the event at these clean-stream indices immediately after
    /// its first delivery (at-least-once transport).
    pub duplicate_at: Vec<usize>,
    /// Swap the events at index `i` and `i + 1` (late/out-of-order
    /// delivery). Out-of-bounds or overlapping indices are ignored.
    pub swap_at: Vec<usize>,
    /// Insert a synthetic event addressing a slot beyond the horizon after
    /// these indices (a feed that ran past the simulated world).
    pub past_horizon_at: Vec<usize>,
}

impl FeedFaultPlan {
    /// Draw a plan from `seed` over a stream of `events` events: each
    /// position independently duplicates / swaps-with-next / grows a
    /// past-horizon straggler with the given rates.
    pub fn random(
        seed: u64,
        events: usize,
        duplicate_rate: f64,
        swap_rate: f64,
        past_horizon_rate: f64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED_FA17);
        let mut plan = FeedFaultPlan::default();
        for i in 0..events {
            if rng.gen_bool(duplicate_rate) {
                plan.duplicate_at.push(i);
            }
            if rng.gen_bool(swap_rate) {
                plan.swap_at.push(i);
            }
            if rng.gen_bool(past_horizon_rate) {
                plan.past_horizon_at.push(i);
            }
        }
        plan
    }

    /// Apply the plan to a clean stream, producing the faulty delivery
    /// order. `horizon_slots` sizes the synthetic past-horizon events'
    /// slots (they address `horizon_slots + k`). Pure and deterministic:
    /// the same plan and stream always produce the same mangled stream.
    pub fn mangle(&self, clean: &[TrafficEvent], horizon_slots: usize) -> Vec<TrafficEvent> {
        let mut stream: Vec<TrafficEvent> = clean.to_vec();
        // Adjacent swaps first (skip overlapping pairs so each swap is a
        // genuine reorder of the clean stream, not a rotation).
        let mut swapped_next = false;
        for i in 0..stream.len().saturating_sub(1) {
            if swapped_next {
                swapped_next = false;
                continue;
            }
            if self.swap_at.contains(&i) {
                stream.swap(i, i + 1);
                swapped_next = true;
            }
        }
        // Then weave in duplicates and past-horizon stragglers.
        let mut out = Vec::with_capacity(stream.len() + self.duplicate_at.len());
        for (i, ev) in stream.into_iter().enumerate() {
            let dup = self.duplicate_at.contains(&i);
            let past = self.past_horizon_at.contains(&i);
            out.push(ev);
            if dup {
                let again = out[out.len() - 1].clone();
                out.push(again);
            }
            if past {
                let t = out[out.len() - 1].time;
                out.push(TrafficEvent {
                    // Distinct seq space so a straggler can never be taken
                    // for a duplicate of a real event.
                    seq: u64::MAX - i as u64,
                    time: t,
                    slot: horizon_slots + (i % 3),
                    kind: TrafficEventKind::Observation,
                    tensor: Vec::new(),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// storage faults
// ---------------------------------------------------------------------------

/// Truncate the file at `path` to its first `keep` bytes (no-op if already
/// shorter). Models a crash mid-write on a non-atomic writer.
pub fn truncate_file(path: impl AsRef<Path>, keep: u64) -> io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    if f.metadata()?.len() > keep {
        f.set_len(keep)?;
    }
    Ok(())
}

/// XOR one byte of the file at `path` with `mask` (must be nonzero to
/// actually corrupt). Models media bit rot.
pub fn flip_byte(path: impl AsRef<Path>, offset: usize, mask: u8) -> io::Result<()> {
    assert!(mask != 0, "mask 0 would be a no-op");
    let path = path.as_ref();
    let mut bytes = std::fs::read(path)?;
    if offset >= bytes.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("offset {offset} beyond file of {} bytes", bytes.len()),
        ));
    }
    bytes[offset] ^= mask;
    std::fs::write(path, bytes)
}

/// Simulate a write to `path` that was interrupted before the atomic rename:
/// leaves a stray `path.tmp` holding the first `keep` bytes of `content` and
/// does NOT touch `path` itself. A correct loader must ignore the stray tmp
/// and read (or report missing) the real file.
pub fn interrupted_write(path: impl AsRef<Path>, content: &[u8], keep: usize) -> io::Result<()> {
    let mut tmp = path.as_ref().as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(tmp, &content[..keep.min(content.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let inj = FaultInjector::new(FaultPlan {
            nan_loss_at: vec![(1, 2)],
            panic_at: vec![(0, 0, 3)],
            crash_at: Some((2, 0)),
        });
        assert_eq!(inj.pending(), 3);
        assert!(!inj.take_nan_loss(0, 0));
        assert!(inj.take_nan_loss(1, 2));
        assert!(!inj.take_nan_loss(1, 2), "nan fault fired twice");
        assert!(inj.take_panic(0, 0, 3));
        assert!(!inj.take_panic(0, 0, 3), "panic fault fired twice");
        assert!(!inj.take_crash(2, 1));
        assert!(inj.take_crash(2, 0));
        assert!(!inj.take_crash(2, 0), "crash fault fired twice");
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.fired().len(), 3);
    }

    #[test]
    fn serve_faults_fire_exactly_once() {
        let inj = ServeFaultInjector::new(ServeFaultPlan {
            slow_at: vec![3],
            slow_ms: 25,
            panic_at: vec![5],
            poison_at: vec![7],
        });
        assert_eq!(inj.pending(), 3);
        assert_eq!(inj.take_slow(2), None);
        assert_eq!(inj.take_slow(3), Some(25));
        assert_eq!(inj.take_slow(3), None, "slow fault fired twice");
        assert!(!inj.take_panic(3));
        assert!(inj.take_panic(5));
        assert!(!inj.take_panic(5), "panic fault fired twice");
        assert!(inj.take_poison(7));
        assert!(!inj.take_poison(7), "poison fault fired twice");
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.fired().len(), 3);
    }

    #[test]
    fn serve_plans_are_deterministic_per_seed() {
        let a = ServeFaultPlan::random(11, 200, 0.1, 0.05, 0.05, 10);
        let b = ServeFaultPlan::random(11, 200, 0.1, 0.05, 0.05, 10);
        assert_eq!(a.slow_at, b.slow_at);
        assert_eq!(a.panic_at, b.panic_at);
        assert_eq!(a.poison_at, b.poison_at);
        assert!(
            !a.slow_at.is_empty(),
            "rate 0.1 over 200 ticks drew nothing"
        );
        let c = ServeFaultPlan::random(12, 200, 0.1, 0.05, 0.05, 10);
        assert!(a.slow_at != c.slow_at || a.panic_at != c.panic_at);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(7, 4, 10, 0.3, 0.3);
        let b = FaultPlan::random(7, 4, 10, 0.3, 0.3);
        let c = FaultPlan::random(8, 4, 10, 0.3, 0.3);
        assert_eq!(a.nan_loss_at, b.nan_loss_at);
        assert_eq!(a.panic_at, b.panic_at);
        assert!(a.nan_loss_at != c.nan_loss_at || a.panic_at != c.panic_at);
        assert!(
            !a.nan_loss_at.is_empty(),
            "rate 0.3 over 40 cells drew nothing"
        );
    }

    #[test]
    fn feed_plans_are_deterministic_per_seed() {
        let a = FeedFaultPlan::random(3, 100, 0.2, 0.2, 0.1);
        let b = FeedFaultPlan::random(3, 100, 0.2, 0.2, 0.1);
        assert_eq!(a.duplicate_at, b.duplicate_at);
        assert_eq!(a.swap_at, b.swap_at);
        assert_eq!(a.past_horizon_at, b.past_horizon_at);
        assert!(!a.duplicate_at.is_empty(), "rate 0.2 over 100 drew nothing");
        let c = FeedFaultPlan::random(4, 100, 0.2, 0.2, 0.1);
        assert!(a.duplicate_at != c.duplicate_at || a.swap_at != c.swap_at);
    }

    fn feed_ev(seq: u64, slot: usize, fill: f32) -> TrafficEvent {
        TrafficEvent {
            seq,
            time: seq as f64,
            slot,
            kind: TrafficEventKind::Observation,
            tensor: vec![fill; 3],
        }
    }

    #[test]
    fn mangle_produces_duplicates_swaps_and_stragglers() {
        let clean: Vec<TrafficEvent> = (0..6).map(|i| feed_ev(i as u64, i % 3, i as f32)).collect();
        let plan = FeedFaultPlan {
            duplicate_at: vec![2],
            swap_at: vec![0],
            past_horizon_at: vec![5],
        };
        let mangled = plan.mangle(&clean, 10);
        assert_eq!(mangled.len(), clean.len() + 2);
        // Swap of indices 0 and 1.
        assert_eq!(mangled[0].seq, 1);
        assert_eq!(mangled[1].seq, 0);
        // Duplicate right after index 2.
        assert_eq!(mangled[2].seq, mangled[3].seq);
        // Past-horizon straggler at the end addresses a slot beyond 10.
        assert!(mangled.last().is_some_and(|e| e.slot >= 10));
    }

    /// The load-bearing property: a mangled delivery (duplicates,
    /// reorderings, past-horizon stragglers) applied to `VersionedTraffic`
    /// converges to the same per-slot state as the clean stream.
    #[test]
    fn mangled_feed_converges_to_clean_state() {
        use crate::livetraffic::VersionedTraffic;
        let horizon = 8usize;
        let clean: Vec<TrafficEvent> = (0..40)
            .map(|i| feed_ev(i as u64, (i * 7) % horizon, i as f32 * 0.1))
            .collect();
        let plan = FeedFaultPlan::random(17, clean.len(), 0.15, 0.2, 0.1);
        let mangled = plan.mangle(&clean, horizon);
        assert!(mangled.len() > clean.len(), "plan drew no faults");

        let mut a = VersionedTraffic::with_horizon(horizon);
        for ev in &clean {
            let _ = a.apply(ev);
        }
        let mut b = VersionedTraffic::with_horizon(horizon);
        let mut rejected = 0usize;
        for ev in &mangled {
            if !b.apply(ev).is_applied() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "no fault was actually delivered");
        for slot in 0..horizon {
            assert_eq!(a.tensor(slot), b.tensor(slot), "slot {slot} diverged");
            assert_eq!(a.last_seq(slot), b.last_seq(slot), "slot {slot} seq");
        }
        assert_eq!(a.touched_slots(), b.touched_slots());
    }

    #[test]
    fn storage_faults_mangle_files() {
        let dir = std::env::temp_dir().join(format!("st_faultinject_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, b"hello world").unwrap();

        truncate_file(&path, 5).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");

        flip_byte(&path, 0, 0xff).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[0], b'h' ^ 0xff);
        assert!(flip_byte(&path, 999, 1).is_err());

        interrupted_write(&path, b"next version", 4).unwrap();
        // Real file untouched, stray tmp holds the partial write.
        assert_eq!(std::fs::read(&path).unwrap().len(), 5);
        assert_eq!(std::fs::read(dir.join("f.bin.tmp")).unwrap(), b"next");
        let _ = std::fs::remove_dir_all(dir);
    }
}
