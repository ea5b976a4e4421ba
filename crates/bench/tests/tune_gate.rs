//! The quick-tune acceptance gate: the per-matrix auto-tuner, run over
//! the quick corpus with the prune audit on, must be sound, must beat the
//! default schedules by at least 1.10x in geomean, and must pick the same
//! winners when re-run through its warm memo.

use via_bench::{tune, SweepMemo, TuneConfig};

#[test]
fn quick_tune_is_sound_clears_the_floor_and_retunes_identically() {
    let cfg = TuneConfig::quick();
    let memo = SweepMemo::new();
    let tuned = tune(&cfg, &memo);
    assert!(
        tuned.is_sound(),
        "quick-tune soundness:\n{}",
        tuned.render()
    );
    let geomean = tuned.geomean_speedup();
    assert!(
        geomean >= 1.10,
        "tuned-over-default geomean {geomean:.3}x under the 1.10x floor:\n{}",
        tuned.render()
    );
    // The warm re-tune answers from cached streams and the cycle memo,
    // yet must pick bit-identical winners.
    let retuned = tune(&cfg, &memo);
    assert_eq!(retuned.rows, tuned.rows, "re-tune must be bit-identical");
}
