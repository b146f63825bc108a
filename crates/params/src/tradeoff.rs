use crate::decomposition::Decomposition;
use crate::instance::{CkksInstance, InstanceBuilder, WORD_BYTES};
use crate::security::max_log_pq_for_security;

/// One point of the Fig. 1 dnum sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DnumPoint {
    /// log2 of the ring degree.
    pub log_n: u32,
    /// Decomposition number.
    pub dnum: usize,
    /// dnum normalized to [0, 1] against the maximum dnum for this N.
    pub normalized_dnum: f64,
    /// Maximum multiplicative level achievable at the security target.
    pub max_level: usize,
    /// Size of a single evaluation key in bytes, `2 · dnum · N · (k + L + 1)`
    /// words (Fig. 1(b); §2.5 ii); zero when no level is reachable.
    pub evk_bytes: u64,
}

/// Maximum multiplicative level L reachable at ring degree `2^log_n` with the
/// given `dnum`, a λ ≥ `lambda` security target and the given prime bit-sizes
/// (Fig. 1(a)).
///
/// The modulus budget `log PQ` is fixed by the security model; Q and P share
/// it in the ratio `dnum : 1` (§3.2: "the Q : P ratio is close to dnum : 1"),
/// and L is however many `log_scale`-bit primes fit in Q after the first
/// `log_q0`-bit prime.
pub fn max_level_for(log_n: u32, dnum: usize, lambda: f64, log_q0: u32, log_scale: u32) -> usize {
    assert!(dnum >= 1);
    let budget = max_log_pq_for_security(1usize << log_n, lambda);
    // log Q = budget * dnum / (dnum + 1)
    let log_q = budget * dnum as f64 / (dnum as f64 + 1.0);
    if log_q <= log_q0 as f64 {
        return 0;
    }
    ((log_q - log_q0 as f64) / log_scale as f64).floor() as usize
}

/// The largest meaningful dnum for a given N at the security target: the dnum
/// at which k = 1 (every prime its own decomposition slice). Mirrors the
/// "Max dnum" table embedded in Fig. 1(b).
pub fn max_dnum(log_n: u32, lambda: f64, log_q0: u32, log_scale: u32) -> usize {
    // k = 1 means dnum = L + 1; solve the fixed point by iterating.
    let mut dnum = 1usize;
    for _ in 0..64 {
        let l = max_level_for(log_n, dnum, lambda, log_q0, log_scale);
        let next = l + 1;
        if next == dnum {
            break;
        }
        dnum = next.max(1);
    }
    dnum
}

/// Sweeps dnum from 1 to the maximum for a given N, producing the data behind
/// both panels of Fig. 1.
pub fn sweep_dnum(log_n: u32, lambda: f64, log_q0: u32, log_scale: u32) -> Vec<DnumPoint> {
    let dmax = max_dnum(log_n, lambda, log_q0, log_scale).max(1);
    (1..=dmax)
        .map(|dnum| {
            let l = max_level_for(log_n, dnum, lambda, log_q0, log_scale);
            DnumPoint {
                log_n,
                dnum,
                normalized_dnum: if dmax > 1 {
                    (dnum - 1) as f64 / (dmax - 1) as f64
                } else {
                    1.0
                },
                max_level: l,
                evk_bytes: match Decomposition::new(l, dnum) {
                    Some(d) if l > 0 => d.evk_words(1 << log_n) * WORD_BYTES,
                    _ => 0,
                },
            }
        })
        .collect()
}

/// Builds a concrete [`CkksInstance`] at the security target for a given
/// (log N, dnum) pair, used by the Fig. 2 sweep.
pub fn instance_at_security(
    log_n: u32,
    dnum: usize,
    lambda: f64,
    log_q0: u32,
    log_scale: u32,
    log_special: u32,
) -> Option<CkksInstance> {
    let mut l = max_level_for(log_n, dnum, lambda, log_q0, log_scale);
    // `max_level_for` assumes an ideal Q:P split of dnum:1; the concrete
    // instance rounds k up and uses `log_special`-bit special primes, so trim
    // levels until the realized modulus actually meets the security target.
    while l > 0 {
        if dnum > l + 1 {
            l -= 1;
            continue;
        }
        let candidate = InstanceBuilder::new(log_n, l, dnum)
            .name(format!("N=2^{log_n} dnum={dnum} @λ≥{lambda:.0}"))
            .prime_bits(log_q0, log_scale, log_special)
            .build();
        if candidate.security_level() >= lambda {
            return Some(candidate);
        }
        l -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIN_BOOT_LEVEL;

    /// Fig. 1(b)'s single-evk size of an (N, L, dnum) point.
    fn evk_bytes(log_n: u32, max_level: usize, dnum: usize) -> u64 {
        InstanceBuilder::new(log_n, max_level, dnum)
            .build()
            .evk_bytes()
    }

    #[test]
    fn level_grows_with_dnum_and_saturates() {
        let l1 = max_level_for(17, 1, 128.0, 60, 51);
        let l2 = max_level_for(17, 2, 128.0, 60, 51);
        let l4 = max_level_for(17, 4, 128.0, 60, 51);
        let lmax = max_level_for(17, 60, 128.0, 60, 51);
        assert!(l1 < l2 && l2 < l4 && l4 < lmax);
        // Saturation: the step from dnum 4 to max is smaller than from 1 to 2.
        assert!(lmax - l4 < (l2 - l1) * 4);
    }

    #[test]
    fn paper_running_example_levels() {
        // Fig. 2 highlights (N, L, dnum) = (2^17, 27, 1), (2^17, 39, 2), (2^17, 44, 3).
        assert!((max_level_for(17, 1, 128.0, 60, 51) as i64 - 27).abs() <= 3);
        assert!((max_level_for(17, 2, 128.0, 60, 51) as i64 - 39).abs() <= 3);
        assert!((max_level_for(17, 3, 128.0, 60, 51) as i64 - 44).abs() <= 3);
    }

    #[test]
    fn evk_size_grows_linearly_with_dnum() {
        // Fig. 1(b): evk size is roughly linear in dnum at fixed N.
        let e1 = evk_bytes(17, 27, 1) as f64;
        let e2 = evk_bytes(17, 39, 2) as f64;
        let e3 = evk_bytes(17, 44, 3) as f64;
        assert!(e2 / e1 > 1.4 && e2 / e1 < 2.6);
        assert!(e3 / e1 > 2.0 && e3 / e1 < 3.6);
    }

    #[test]
    fn small_n_cannot_bootstrap_at_dnum_1() {
        // Fig. 1(a)'s dotted line: N = 2^15 at dnum = 1 falls below the
        // minimum bootstrappable level.
        let l = max_level_for(15, 1, 128.0, 60, 51);
        assert!(l < MIN_BOOT_LEVEL);
        // but a large dnum rescues it
        let l_max = max_level_for(15, 14, 128.0, 60, 51);
        assert!(l_max >= MIN_BOOT_LEVEL);
    }

    #[test]
    fn max_dnum_matches_fig1_table_roughly() {
        // Fig. 1(b) table: max dnum 121 / 60 / 29 / 14 for N = 2^18..2^15.
        let m18 = max_dnum(18, 128.0, 60, 51);
        let m17 = max_dnum(17, 128.0, 60, 51);
        let m16 = max_dnum(16, 128.0, 60, 51);
        let m15 = max_dnum(15, 128.0, 60, 51);
        assert!((m18 as i64 - 121).abs() <= 12, "m18 = {m18}");
        assert!((m17 as i64 - 60).abs() <= 6, "m17 = {m17}");
        assert!((m16 as i64 - 29).abs() <= 4, "m16 = {m16}");
        assert!((m15 as i64 - 14).abs() <= 3, "m15 = {m15}");
    }

    #[test]
    fn sweep_is_monotone_in_level() {
        let points = sweep_dnum(17, 128.0, 60, 51);
        assert!(points.len() > 10);
        for w in points.windows(2) {
            assert!(w[1].max_level >= w[0].max_level);
            assert!(w[1].normalized_dnum >= w[0].normalized_dnum);
        }
    }

    #[test]
    fn instance_at_security_reaches_target() {
        let ins = instance_at_security(17, 2, 128.0, 60, 51, 58).unwrap();
        assert!(ins.security_level() >= 127.0);
        // A 2^14 ring at the same security target cannot reach a bootstrappable
        // level budget (§3.2).
        let small = instance_at_security(14, 1, 128.0, 60, 51, 58);
        assert!(small.is_none_or(|i| i.max_level() < MIN_BOOT_LEVEL));
    }
}
