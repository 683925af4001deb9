"""Edge cases of the numeric kernels. BPE training as a whole is pinned by
the merge-for-merge oracle test (C07), masking by the golden-value test in
test_instances.py and the batch kernel by the one-sequence oracle below."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import kernels
from .oracles import mask_sequence_oracle


def test_count_pairs_empty_and_single():
    flat = np.array([3], np.int32)
    offsets = np.array([0, 1], np.int64)
    counts = np.array([5], np.int64)
    keys, totals = kernels.count_pairs(flat, offsets, counts)
    assert keys.size == 0 and totals.size == 0


def test_count_pairs_weighted_totals():
    # words: [0,1,1] x3 and [1,1] x2 -> pair (0,1): 3, pair (1,1): 3+2
    flat = np.array([0, 1, 1, 1, 1], np.int32)
    offsets = np.array([0, 3, 5], np.int64)
    counts = np.array([3, 2], np.int64)
    keys, totals = kernels.count_pairs(flat, offsets, counts)
    got = {(int(k) >> 32, int(k) & 0xFFFFFFFF): int(t) for k, t in zip(keys, totals)}
    assert got == {(0, 1): 3, (1, 1): 5}


def test_apply_merge_overlapping_run_is_left_to_right():
    # "aaaa" with merge (a,a) -> (aa)(aa); "aaa" -> (aa)a
    flat = np.array([7, 7, 7, 7, 7, 7, 7], np.int32)
    offsets = np.array([0, 4, 7], np.int64)
    out, new_offsets = kernels.apply_merge(flat, offsets, np.int32(7), np.int32(7), np.int32(9))
    np.testing.assert_array_equal(out, [9, 9, 9, 7])
    np.testing.assert_array_equal(new_offsets, [0, 2, 4])


def test_apply_merge_no_match_is_identity():
    flat = np.array([1, 2, 3], np.int32)
    offsets = np.array([0, 3], np.int64)
    out, new_offsets = kernels.apply_merge(flat, offsets, np.int32(5), np.int32(6), np.int32(9))
    np.testing.assert_array_equal(out, flat)
    np.testing.assert_array_equal(new_offsets, offsets)


def test_mask_sequence_respects_specials_and_cap():
    ids = np.arange(5, 105, dtype=np.int32)
    special = np.zeros(100, np.uint8)
    special[0] = special[50] = special[99] = 1
    out, pos, lab = kernels.mask_sequence(ids, special, 123, 0.15, 10, 4, 5, 1000)
    assert len(pos) == 10  # round(0.15 * 97) = 15, capped at 10
    assert not {0, 50, 99} & set(int(p) for p in pos)
    assert np.array_equal(lab, ids[pos])
    untouched = np.setdiff1d(np.arange(100), pos)
    assert np.array_equal(out[untouched], ids[untouched])


def test_mask_sequence_zero_candidates():
    ids = np.array([2, 3, 3], np.int32)
    special = np.ones(3, np.uint8)
    out, pos, lab = kernels.mask_sequence(ids, special, 1, 0.15, 20, 4, 5, 100)
    assert pos.size == 0 and lab.size == 0
    assert np.array_equal(out, ids)


def test_mask_sequence_minimum_one_position():
    ids = np.array([2, 9, 3], np.int32)
    special = np.array([1, 0, 1], np.uint8)
    out, pos, lab = kernels.mask_sequence(ids, special, 7, 0.15, 20, 4, 5, 100)
    assert pos.tolist() == [1]
    assert lab.tolist() == [9]


# a row: (length, share of its positions flagged special, seed)
MASK_ROWS = st.lists(
    st.tuples(st.integers(1, 200), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
              st.integers(0, 2**64 - 1) | st.integers(2**64 - 16, 2**64 - 1)),
    min_size=1, max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(MASK_ROWS, st.integers(1, 40), st.floats(0.001, 0.999), st.integers(1, 5),
       st.sampled_from([0, 1, 7, 30000]), st.integers(0, 2**32 - 1))
@example([(1, 0.0, 2**64 - 1)], 20, 0.15, 5, 100, 0)
@example([(200, 0.0, 2**64 - 2), (3, 1.0, 5), (40, 0.1, 2**64 - 1)], 20, 0.15, 5, 0, 1)
@example([(12, 0.5, 11), (7, 0.0, 2**63)], 40, 0.99, 3, 1, 2)
def test_mask_batch_equals_one_sequence_oracle(rows, cap, prob, n_special, n_random, content_seed):
    vocab_size = n_special + n_random
    width = max(length for length, _, _ in rows)
    gen = np.random.default_rng(content_seed)
    ids = gen.integers(0, max(vocab_size, 1), (len(rows), width)).astype(np.int32)
    special = np.ones((len(rows), width), np.uint8)  # padding counts as special
    for r, (length, share, _) in enumerate(rows):
        special[r, :length] = gen.random(length) < share
    seeds = np.array([seed for _, _, seed in rows], np.uint64)
    out, positions, labels = kernels.mask_sequence(ids, special, seeds, prob, cap, 4, n_special, vocab_size)
    assert out.shape == ids.shape and positions.shape == labels.shape
    for r, (length, _, seed) in enumerate(rows):
        want_out, want_positions, want_labels = mask_sequence_oracle(
            ids[r, :length], special[r, :length], seed, prob, cap, 4, n_special, vocab_size)
        m = want_positions.size
        assert out[r, :length].tolist() == want_out.tolist()
        assert (out[r, length:] == ids[r, length:]).all()
        assert positions[r, :m].tolist() == want_positions.tolist()
        assert labels[r, :m].tolist() == want_labels.tolist()
        assert (positions[r, m:] == -1).all() and (labels[r, m:] == -1).all()
