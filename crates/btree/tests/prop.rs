//! The hot-prefix cursor against `get` under all four techniques.

use amac::engine::closure_api::{for_each_interleaved, Resume};
use amac::engine::Technique;
use amac_btree::{BPlusTree, BTreeCursor, BTreeMove};

/// Each key's answer from a [`BTreeCursor`] (stage 0 walks the hot inner
/// levels, each later stage one node), run by `technique` with `m` in
/// flight.
fn cursor_answers(
    tree: &BPlusTree,
    keys: &[u64],
    technique: Technique,
    m: usize,
) -> Vec<Option<u64>> {
    let inputs: Vec<(usize, u64)> = keys.iter().copied().enumerate().collect();
    let mut out = vec![None; keys.len()];
    for_each_interleaved(
        technique,
        &inputs,
        m,
        |&(i, key)| (i, key, BTreeCursor::start(tree, key)),
        |(i, key, cursor)| match cursor.step(*key) {
            BTreeMove::Descended => Resume::Later,
            BTreeMove::Found(payload) => {
                out[*i] = Some(payload);
                Resume::Finished
            }
            BTreeMove::Missed => Resume::Finished,
        },
    );
    out
}

/// Trees whose hot levels are every inner level (a single leaf has none;
/// 449 and 10,000 keys) or the top four of five (2^17 keys), plus the
/// empty tree. Probes: every key, each key's successor (in-range
/// misses), 0 (below the minimum) and `u64::MAX` (above the maximum).
#[test]
fn btree_hot_prefix_cursor_equals_get_under_every_technique() {
    for (n, hot, staged_inner) in
        [(0, 0, 0), (5, 0, 0), (449, 3, 0), (10_000, 4, 0), (1 << 17, 4, 1)]
    {
        let pairs: Vec<(u64, u64)> = (1..=n as u64).map(|k| (k * 2, k)).collect();
        let tree = BPlusTree::from_sorted(&pairs);
        assert_eq!(tree.hot_levels(), hot, "{n} keys");
        assert_eq!(tree.height().saturating_sub(hot + 1), staged_inner, "{n} keys");
        // Large trees: every 16th key, and the largest.
        let stride = if n > 20_000 { 16 } else { 1 };
        let keys: Vec<u64> = pairs
            .iter()
            .step_by(stride)
            .chain(pairs.last())
            .flat_map(|&(k, _)| [k, k + 1])
            .chain([0, u64::MAX])
            .collect();
        let want: Vec<Option<u64>> = keys.iter().map(|&k| tree.get(k)).collect();
        for t in Technique::ALL {
            for m in [1, 10] {
                assert_eq!(cursor_answers(&tree, &keys, t, m), want, "{t}, M={m}, {n} keys");
            }
        }
    }
}
