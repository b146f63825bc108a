//! An `HeCircuit` evaluated slot-wise on plain `f64`s: the reference a
//! functional run's decrypted slots are held to. It shares no code with
//! either backend (no compilation, no registers, no ciphertexts) and gives
//! every instruction its plaintext meaning on real messages: products and
//! sums slot by slot, a rotation by `r` reads slot `j + r`, constants apply
//! to every slot, and conjugation, rescaling, modulus raising and
//! refreshes leave the slots as they are. `#[path]`-included by the suites
//! that need it.

use std::collections::HashMap;

use bts::circuit::{HeCircuit, HeInstr, ValueId};

/// Each output of `circuit` on `inputs` (one message per circuit input, one
/// value per slot), in output order.
pub fn interpret(circuit: &HeCircuit, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let slots = circuit.instance.slots();
    let mut env: HashMap<ValueId, Vec<f64>> = HashMap::new();
    for (input, message) in circuit.inputs.iter().zip(inputs) {
        env.insert(input.id, message.clone());
    }
    for node in &circuit.nodes {
        let (a, b) = node.instr.operands();
        let a = &env[&a];
        let zip = |f: fn(f64, f64) -> f64| -> Vec<f64> {
            let b = &env[&b.expect("binary instruction")];
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        };
        let value = match node.instr {
            HeInstr::HMult { .. } => zip(|x, y| x * y),
            HeInstr::HAdd { .. } => zip(|x, y| x + y),
            HeInstr::HRot { rotation, .. } => (0..slots)
                .map(|j| a[(j as i64 + rotation).rem_euclid(slots as i64) as usize])
                .collect(),
            HeInstr::PMult { value, .. } | HeInstr::CMult { value, .. } => {
                a.iter().map(|x| x * value).collect()
            }
            HeInstr::PAdd { value, .. } | HeInstr::CAdd { value, .. } => {
                a.iter().map(|x| x + value).collect()
            }
            HeInstr::Conjugate { .. }
            | HeInstr::Rescale { .. }
            | HeInstr::ModRaise { .. }
            | HeInstr::Bootstrap { .. } => a.clone(),
        };
        env.insert(node.result, value);
    }
    circuit.outputs.iter().map(|id| env[id].clone()).collect()
}
