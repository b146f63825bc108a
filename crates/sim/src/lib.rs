//! # bts-sim
//!
//! A performance, area, power and energy model of the BTS accelerator
//! (§4–§6 of the paper): 2,048 processing elements in a 64×32 grid, each with
//! an NTTU, a BConvU (ModMult + MMAU), element-wise units and a scratchpad
//! slice; two HBM2e stacks; and three dedicated NoCs.
//!
//! The simulator consumes *HE-op traces* (sequences of `HMult`, `HRot`,
//! `PMult`, … with their ciphertext levels and operand identities) produced by
//! `bts-workloads`, lowers each op onto the paper's dataflow
//! (iNTT → BConv → NTT → ⊙evk → ModDown, Fig. 3a), and accounts for
//!
//! * evaluation-key streaming from HBM (the §3.3 minimum bound),
//! * functional-unit occupancy (NTTU butterflies, BConvU MACs, element-wise),
//! * the software-managed ciphertext cache in the scratchpad (§5.3), replaced
//!   on a compiler-emitted 2-bit reuse code per operand rather than reactively,
//! * scratchpad capacity pressure from temporary key-switching data,
//! * energy, chip area and EDAP (Table 3, Fig. 10).
//!
//! ```
//! use bts_sim::{BtsConfig, Simulator, TraceBuilder};
//! use bts_params::CkksInstance;
//!
//! let ins = CkksInstance::ins1();
//! let mut trace = TraceBuilder::new(&ins);
//! let a = trace.fresh_ct(ins.max_level());
//! let b = trace.fresh_ct(ins.max_level());
//! let c = trace.hmult(a, b);
//! let _ = trace.hrescale(c);
//! let report = Simulator::new(BtsConfig::bts_default(), ins).run(&trace.build());
//! assert!(report.total_seconds > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod cost;
mod engine;
mod keyswitch;
mod noc;
mod pe;
pub mod ticks;
mod trace;
mod trace_index;
mod twiddle;

pub use config::{ArchPreset, BtsConfig, ConfigError};
pub use cost::{AreaPowerModel, ComponentCost};
pub use engine::{
    OpCharge, OpClassStats, OpCost, OpSink, OpTiming, SimReport, Simulator, COPY_RECORDS,
};
pub use keyswitch::{FuKind, KeySwitchSchedule, Phase};
pub use noc::{BruNoc, PeMemNoc, PePeNoc};
pub use pe::ProcessingElement;
pub use ticks::ByteTicks;
pub use trace::{CtId, HeOp, RawOp, TraceBuilder, TraceError};
pub use trace_index::{OpTrace, Reuse, TracedOp};
pub use twiddle::TwiddleStorage;
