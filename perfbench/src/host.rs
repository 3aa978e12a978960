//! Host-speed calibration.
//!
//! The shared host the benchmark was built on runs in phases: for tens of
//! seconds at a time its vCPUs deliver about half their usual speed, with
//! nothing visible inside the guest (no steal time, no run-queue wait).
//! A whole-run rate cannot average out a phase longer than the run, so
//! the benchmark times a fixed unit of work of its own through every run
//! and reports its timings at the host's reference speed: a rate is
//! multiplied, a time divided, by the slowdown the unit measured over the
//! same seconds. The unit uses the standard library only, so no change to
//! the program under test can change it.

/// Nanoseconds one [`reference_unit`] typically takes between rounds on
/// the 2-vCPU x86-64 host the benchmark was calibrated on, so reported
/// figures stay close to that host's wall-clock ones. Only a scale: any
/// constant gives the same ratios between runs.
pub const REFERENCE_UNIT_NS: f64 = 300_000.0;

/// A fixed unit of integer work over a few tens of KiB, like the program's
/// own mix: pseudo-random fill, an unstable sort, and a dependent walk of
/// a random permutation.
pub fn reference_unit() -> u64 {
    const N: usize = 8192;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as u32
    };
    let mut keys: Vec<u32> = (0..N).map(|_| next()).collect();
    let mut perm: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        perm.swap(i, next() as usize % (i + 1));
    }
    keys.sort_unstable();
    let (mut p, mut acc) = (0usize, 0u64);
    for _ in 0..4 * N {
        p = perm[p] as usize;
        acc = acc.wrapping_add(u64::from(keys[p]) ^ p as u64);
    }
    acc
}
