//! A trace's dependences read by ciphertext id, the reference the suites
//! hold the scheduler's readiness rule to. `#[path]`-included as `deps` by
//! the suites that need it, `list_oracle.rs` among them (it reads
//! `crate::deps`).

use std::collections::HashMap;

use bts::sim::{CtId, OpTrace};

/// Per op of a trace, in program order: the ops it depends on through data
/// and the barrier segment it sits in.
#[derive(Debug, PartialEq)]
pub struct Deps {
    /// The ops whose outputs the op reads, ascending, each once; trace
    /// inputs have no producer.
    pub producers: Vec<Vec<u32>>,
    /// How many times `in_bootstrap` flipped before the op: no op may start
    /// before every op of an earlier segment has finished.
    pub segment: Vec<u32>,
}

impl Deps {
    /// One pass over `trace` that names every ciphertext by its id
    /// ([`OpTrace::id_of`]) and remembers which op defined it first.
    pub fn of(trace: &OpTrace) -> Self {
        let mut defined_by: HashMap<CtId, u32> = HashMap::new();
        let mut deps = Deps {
            producers: Vec::with_capacity(trace.len()),
            segment: Vec::with_capacity(trace.len()),
        };
        let (mut segment, mut in_bootstrap) = (0, None);
        for (i, op) in (0u32..).zip(trace.ops()) {
            if in_bootstrap.is_some_and(|flag| flag != op.in_bootstrap) {
                segment += 1;
            }
            in_bootstrap = Some(op.in_bootstrap);
            deps.segment.push(segment);
            let ids = op.operands.iter().map(|&slot| trace.id_of(slot));
            let mut producers: Vec<u32> =
                ids.filter_map(|id| defined_by.get(&id).copied()).collect();
            producers.sort_unstable();
            producers.dedup();
            deps.producers.push(producers);
            if let Some(slot) = op.output {
                defined_by.entry(trace.id_of(slot)).or_insert(i);
            }
        }
        deps
    }
}
