//! The rush-hour demand profile for load-generating the prediction
//! service.
//!
//! A serving benchmark must be *open-loop*: arrivals are drawn from a fixed
//! process independent of how fast the server answers, so queueing delay —
//! the thing overload actually produces — is measured instead of hidden by
//! closed-loop self-throttling. [`rush_hour_rate`] is the rate of an
//! *inhomogeneous* Poisson process that follows the simulator's diurnal
//! congestion profile ([`crate::TrafficModel::diurnal_factor`]) with one
//! simulated day compressed into the benchmark window, so the morning and
//! evening rushes show up as genuine burst load; the load generator samples
//! its arrivals from it.

use crate::traffic::{TrafficModel, DAY_SECS};

/// Instantaneous arrival rate (Hz) of the rush-hour profile at benchmark
/// time `t` of `duration_s`: one simulated day compressed into the window,
/// with demand scaling from `base_rate_hz` off-peak up to
/// `base_rate_hz × peak_mult` at the height of the 8:00/18:00 rushes.
///
/// The simulator's diurnal factor is a *speed* multiplier in `(0, 1]`
/// (1 = free flow, minimum at rush hour); demand is its mirror image, so
/// the rate interpolates on `1 − factor` normalized by the profile's
/// deepest dip.
pub fn rush_hour_rate(base_rate_hz: f64, peak_mult: f64, t: f64, duration_s: f64) -> f64 {
    let sim_t = (t / duration_s) * DAY_SECS;
    let factor = TrafficModel::diurnal_factor(sim_t);
    // Deepest dip of the diurnal profile (at the 8:00 peak).
    let min_factor = TrafficModel::diurnal_factor(8.0 * 3600.0);
    let rush = ((1.0 - factor) / (1.0 - min_factor)).clamp(0.0, 1.0);
    base_rate_hz * (1.0 + (peak_mult - 1.0) * rush)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rush_hour_rate_peaks_at_compressed_rush() {
        let dur = 60.0;
        // 8:00 of a day compressed into 60 s lands at t = 60·8/24 = 20 s.
        let peak = rush_hour_rate(10.0, 4.0, 20.0, dur);
        let off = rush_hour_rate(10.0, 4.0, 60.0 * 3.0 / 24.0, dur); // 03:00
        assert!(peak > 3.9 * 10.0, "rush rate {peak} not near peak");
        assert!(off < 1.5 * 10.0, "off-peak rate {off} too high");
    }
}
