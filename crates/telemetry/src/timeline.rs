//! The shared timeline-segment shape.
//!
//! [`TimelineSegment`] started life inside `bts-sim` (the Fig. 8 HMult
//! timeline) and was also built by the scheduler's per-channel timeline view.
//! It now lives here so every layer describes occupied hardware intervals
//! with one type.

/// One segment of a hardware-occupancy timeline: `unit` is busy doing `label`
/// from `start_ns` to `end_ns` (nanoseconds of simulated time, relative to
/// whatever origin the producer chose).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSegment {
    /// Hardware resource the segment occupies (`"HBM"`, `"NTTU"`, `"BConvU"`,
    /// `"ModMult/ModAdd"`).
    pub unit: &'static str,
    /// What the resource is doing (e.g. `"load evk.ax.Q"`, `"iNTT.d2"`).
    pub label: String,
    /// Segment start, in nanoseconds from the producer's origin.
    pub start_ns: f64,
    /// Segment end, in nanoseconds.
    pub end_ns: f64,
}

impl TimelineSegment {
    /// Builds a segment.
    pub fn new(unit: &'static str, label: impl Into<String>, start_ns: f64, end_ns: f64) -> Self {
        Self {
            unit,
            label: label.into(),
            start_ns,
            end_ns,
        }
    }
}
