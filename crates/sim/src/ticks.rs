//! Simulated time in integer ticks.
//!
//! A simulated second is a count of ticks of [`TICK_HZ`] = 6 × 10¹² per
//! second (one tick ≈ 0.167 ps). At the paper's design point every unit of
//! charge is a whole number of ticks: one 1.2 GHz cycle is 5 000 ticks, one
//! byte at 1 TB/s is 6 and at 2 TB/s 3 — so an HBM-bound op's charge is
//! exact. A `u64` holds about 35 days of them; every time an input may
//! carry is at most [`MAX_TICKS`] (≈ 8.9 days), so a few such times add
//! without overflow.
//!
//! Ticks add associatively, so a sum over a sweep is the same in any order:
//! a repeated copy's recorded totals can be added in one step, and a
//! placement translated by a whole number of ticks is the placement. The
//! engine charges each (op, level)'s unit times rounded up to ticks once
//! ([`crate::OpCharge`]), HBM bytes through one precomputed factor
//! ([`ByteTicks`]),
//! and reports, timings and schedules convert to seconds only where they
//! hand a number out ([`seconds`]).

/// Ticks per simulated second.
pub const TICK_HZ: f64 = 6e12;

/// The largest time, in ticks, a release, an op or a charge may carry:
/// 2⁶² ticks ≈ 7.7 × 10⁵ s.
pub const MAX_TICKS: u64 = 1 << 62;

/// `ticks` in seconds: the one conversion out.
pub fn seconds(ticks: u64) -> f64 {
    ticks as f64 / TICK_HZ
}

/// The tick nearest `seconds`, if it is a time in range (finite, not
/// negative, at most [`MAX_TICKS`]): the one conversion in, which returns
/// every tick below 2⁵¹ that [`seconds`] gave out.
pub fn from_seconds(seconds: f64) -> Option<u64> {
    let ticks = (seconds * TICK_HZ).round();
    // `!(x <= MAX)` also refuses NaN.
    (seconds >= 0.0 && ticks <= MAX_TICKS as f64).then_some(ticks as u64)
}

/// A charge of `seconds` rounded up to whole ticks, at most [`MAX_TICKS`].
pub fn charge(seconds: f64) -> u64 {
    // `as` saturates, and NaN is 0.
    ((seconds * TICK_HZ).ceil() as u64).min(MAX_TICKS)
}

/// HBM bytes to ticks at one bandwidth: ticks per byte, precomputed, so a
/// charge is one product and a round-up — exact wherever a byte is a whole
/// number of ticks and the product is below 2⁵³.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByteTicks(f64);

impl ByteTicks {
    /// The factor of `bytes_per_sec`, if a byte takes from 2⁻³² to 2³²
    /// ticks (from ≈ 1.4 kB/s to ≈ 2.6 × 10²² B/s): a factor that rounds to
    /// no tick, or one no charge would fit, has none.
    pub fn new(bytes_per_sec: f64) -> Option<Self> {
        const RANGE: f64 = 4_294_967_296.0;
        let factor = TICK_HZ / bytes_per_sec;
        (1.0 / RANGE..=RANGE)
            .contains(&factor)
            .then_some(Self(factor))
    }

    /// `bytes` streamed, rounded up to whole ticks, at most [`MAX_TICKS`].
    #[inline]
    pub fn ticks(self, bytes: u64) -> u64 {
        // `as` saturates.
        ((bytes as f64 * self.0).ceil() as u64).min(MAX_TICKS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_points_are_whole_ticks() {
        assert_eq!(charge(1.0 / 1.2e9), 5_000);
        assert_eq!(ByteTicks::new(1e12).unwrap().ticks(1), 6);
        assert_eq!(
            ByteTicks::new(2e12).unwrap().ticks(117_440_512),
            3 * 117_440_512
        );
        assert_eq!(ByteTicks::new(0.5e12).unwrap().ticks(7), 84);
    }

    #[test]
    fn conversions_round_trip_and_refuse_the_range_edge() {
        for t in [0, 1, 5_000, 6_000_000_000_000, (1 << 51) - 1] {
            assert_eq!(from_seconds(seconds(t)), Some(t));
        }
        for bad in [
            f64::NAN,
            f64::INFINITY,
            -1e-3,
            1e300,
            seconds(MAX_TICKS) * 2.0,
        ] {
            assert_eq!(from_seconds(bad), None, "{bad}");
        }
        assert_eq!(charge(1e300), MAX_TICKS);
        assert!(ByteTicks::new(f64::INFINITY).is_none());
        assert!(ByteTicks::new(1.0).is_none());
        let jittered = ByteTicks::new(1.0007e12).unwrap();
        let exact = 1e9 * TICK_HZ / 1.0007e12;
        let ticks = jittered.ticks(1_000_000_000) as f64;
        assert!(ticks >= exact && ticks - exact <= 1.0, "{ticks} vs {exact}");
    }
}
