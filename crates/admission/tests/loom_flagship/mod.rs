//! The flagship loom model, shared by `loom_models.rs` (which checks the
//! bucket's remainder and refund after it) and `loom_bench.rs` (which
//! explores it with and without partial-order reduction for
//! `BENCH_loom.json`).

use std::sync::Arc;

use uba_admission::{PolicyStage, TokenBucketStage};

/// The token-bucket interval-claim race: two concurrent grabs racing
/// each other's refill of the *same* elapsed interval. The
/// CAS-claimed `[last, t]` window must be credited exactly once, however
/// the schedules interleave. The bucket is pre-drained to empty, then
/// both threads ask for one flow at a `t` whose single refill credit
/// covers one flow but not two — if any schedule let both refills bank
/// the interval (or one refill bank it twice), both grabs would be
/// granted and the model fails. Returns the bucket for checks after
/// the race.
pub fn token_bucket_interval_race() -> Arc<TokenBucketStage> {
    // Rate 600 b/s, depth 1000 bits, flow cost 500 bits. Drain the
    // initial depth at t=0 (no elapsed time, so no refill), leaving
    // an empty bucket whose only future credit is elapsed time.
    let tb = Arc::new(TokenBucketStage::new(600.0, 1000.0, &[500.0]));
    assert_eq!(
        tb.admit_up_to(0, 2, 0.0),
        2,
        "full depth-1000 bucket holds 2×500"
    );
    assert_eq!(tb.tokens_bits(0), 0.0, "pre-drain must empty the bucket");

    // At t=1.0 the interval [0, 1] is worth one credit of 600 bits:
    // exactly one 500-bit grab fits. Two grants would mean the
    // interval was credited twice (1200 banked).
    let tb2 = Arc::clone(&tb);
    let rival = uba_loom::thread::spawn(move || tb2.admit_up_to(0, 1, 1.0));
    let mine = tb.admit_up_to(0, 1, 1.0);
    let theirs = rival.join().unwrap();
    assert!(
        mine + theirs <= 1,
        "a 600-bit refill interval was credited twice (two 500-bit grabs won)"
    );
    assert_eq!(
        mine + theirs,
        1,
        "600 banked bits must admit one 500-bit flow"
    );
    tb
}
