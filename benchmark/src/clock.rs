//! Elapsed core clock cycles, estimated from outside.
//!
//! On a shared host the core clock follows the load of the other machines
//! on it: the fastest run of a fixed chain of dependent instructions, taken
//! over one second, steps between about 2.4 and 3.0 GHz in 100 MHz steps,
//! and single runs move by as much within tens of milliseconds. Every
//! program slows down with it. A virtual machine often exposes no cycle
//! counter, so the benchmark times a probe — a fixed chain of
//! [`PROBE_CYCLES`] dependent single-cycle instructions — right before and
//! right after each unit of work, and converts the unit's wall time to
//! cycles at the clock the faster of the two readings shows.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Cycles one probe takes on x86-64: 1000 rounds of three shift-xor
/// pairs, six instructions that each wait on the one before and take one
/// cycle.
pub const PROBE_CYCLES: f64 = 6000.0;

/// Seconds the probe takes now.
pub fn probe() -> f64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let t = Instant::now();
    for _ in 0..1000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(x);
    secs
}

/// Billions of cycles in `secs` of wall time between probe readings
/// `before` and `after` (seconds each).
pub fn gcycles(secs: f64, before: f64, after: f64) -> f64 {
    secs * PROBE_CYCLES / before.min(after) / 1e9
}

/// Times units of work in cycles. Each unit lies between two probe
/// readings: the one that ended the unit before it, and its own.
pub struct Cycles {
    last: f64,
    start: Instant,
    /// The clock each timed unit ran at, in GHz.
    clocks: Vec<f64>,
}

impl Cycles {
    /// Take the first reading; a unit starts now.
    pub fn start() -> Cycles {
        let last = probe();
        Cycles {
            last,
            start: Instant::now(),
            clocks: Vec::new(),
        }
    }

    /// The median clock the units ran at, in GHz.
    pub fn median_ghz(&self) -> f64 {
        median(&self.clocks)
    }

    /// A unit starts now.
    pub fn begin(&mut self) {
        self.start = Instant::now();
    }

    /// Take a fresh reading and begin a unit, after a pause in timing.
    pub fn resume(&mut self) {
        self.last = probe();
        self.begin();
    }

    /// End the unit begun last: its wall seconds and billions of cycles.
    pub fn end(&mut self) -> (f64, f64) {
        let secs = self.start.elapsed().as_secs_f64();
        let now = probe();
        let g = gcycles(secs, self.last, now);
        self.clocks.push(gcycles(1.0, self.last, now));
        self.last = now;
        (secs, g)
    }

    /// End the unit begun last and begin the next.
    pub fn lap(&mut self) -> (f64, f64) {
        let unit = self.end();
        self.begin();
        unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_reads_a_plausible_clock() {
        let best = (0..200).map(|_| probe()).fold(f64::INFINITY, f64::min);
        let ghz = PROBE_CYCLES / best / 1e9;
        assert!((0.5..=6.5).contains(&ghz), "probe reads {ghz} GHz");
    }

    #[test]
    fn cycles_scale_with_wall_time() {
        let spin = |ms: u64| {
            let t = Instant::now();
            while t.elapsed().as_millis() < u128::from(ms) {
                std::hint::spin_loop();
            }
        };
        let mut c = Cycles::start();
        spin(2);
        let (s1, g1) = c.lap();
        spin(6);
        let (s2, g2) = c.end();
        assert!(s2 > s1 && g2 > g1);
        assert!((g1 / s1 - g2 / s2).abs() / (g1 / s1) < 0.5);
    }
}
