"""Edge cases of the numeric kernels. BPE training as a whole is pinned by
the merge-for-merge oracle test (C07), masking by the golden-value test in
test_instances.py."""

import numpy as np

from bpt import kernels


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
