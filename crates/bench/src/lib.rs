//! Shared measurement helpers for the `table1`, `table2` and `rq5`
//! binaries. The Table 1 memory column comes from
//! `cognicrypt_core::memtrack`, the one allocation tracker.

use std::time::Instant;

/// Times `f` over `runs` executions and returns the mean in milliseconds —
/// the measurement protocol of RQ2 (the paper averages ten runs).
pub fn mean_runtime_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    assert!(runs > 0);
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / runs as f64
}

/// Counts non-blank lines — the LoC measure used by Table 2.
pub fn loc(text: &str) -> usize {
    text.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_helper_returns_positive_mean() {
        let ms = mean_runtime_ms(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ms >= 0.0);
    }

    #[test]
    fn loc_counts() {
        assert_eq!(loc("a\n\nb\n  \nc"), 3);
    }
}
