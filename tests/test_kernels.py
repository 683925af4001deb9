"""Edge cases of the numeric kernels. BPE training as a whole is pinned by
the merge-for-merge oracle test (C07), merge application on the linked
layout by the per-word oracle below, once and twice in a row, masking by
the golden-value test in test_instances.py and the batch kernel by the
one-sequence oracle below."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import kernels
from .oracles import apply_merge_oracle, mask_sequence_oracle


def test_count_pairs_empty_and_single():
    keys, totals = kernels.count_pairs(np.empty(0, np.int64), np.empty(0, np.int64))
    assert keys.size == 0 and totals.size == 0
    keys, totals = kernels.count_pairs(np.array([9], np.int64), np.array([5], np.int64))
    assert keys.tolist() == [9] and totals.tolist() == [5]


def test_count_pairs_weighted_totals():
    # repeated keys are summed, negative weights included, and the distinct
    # keys come back in ascending order
    keys = np.array([10**12, 3, 10**12, 5, 3, 3], np.int64)
    weights = np.array([4, 1, -6, 2, 2, -3], np.int64)
    keys, totals = kernels.count_pairs(keys, weights)
    assert keys.tolist() == [3, 5, 10**12]
    assert totals.tolist() == [0, 2, -2]


def linked(words):
    """The linked layout of a list of words: (flat, nxt, prv, first slot of
    each word)."""
    flat = np.array([s for word in words for s in word], np.int32)
    lengths = np.array([len(word) for word in words], np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nxt = np.arange(1, flat.size + 1, dtype=np.int32)
    nxt[ends - 1] = -1
    prv = np.arange(-1, flat.size - 1, dtype=np.int32)
    prv[starts] = -1
    return flat, nxt, prv, starts


def read_words(flat, nxt, prv, starts):
    """The words of a linked layout, read by walking nxt from each word's
    first slot; checks that prv links each slot back to the one before it."""
    words = []
    for slot in starts:
        word, before = [], -1
        while slot >= 0:
            assert prv[slot] == before and flat[slot] >= 0
            word.append(int(flat[slot]))
            before, slot = slot, nxt[slot]
        words.append(word)
    return words


def merge(layout, left, right, new_id):
    flat, nxt, prv, _ = layout
    return kernels.apply_merge(flat, nxt, prv, np.int32(left), np.int32(right), np.int32(new_id))


def oracle_words(words, left, right, new_id):
    flat, offsets = apply_merge_oracle(words, left, right, new_id)
    return [flat[a:b] for a, b in zip(offsets, offsets[1:])]


def test_apply_merge_overlapping_run_is_left_to_right():
    # "aaaa" with merge (a,a) -> (aa)(aa); "aaa" -> (aa)a
    layout = linked([[7, 7, 7, 7], [7, 7, 7]])
    merged = merge(layout, 7, 7, 9)
    assert merged.tolist() == [0, 2, 4]
    assert read_words(*layout) == [[9, 9], [9, 7]]
    assert layout[0].tolist() == [9, -1, 9, -1, 9, -1, 7]


def test_apply_merge_no_match_is_identity():
    layout = linked([[1, 2, 3], [1, 3]])  # (3, 1) only across the word boundary
    before = [a.copy() for a in layout]
    assert merge(layout, 3, 1, 9).size == 0
    for got, want in zip(layout, before):
        np.testing.assert_array_equal(got, want)


def check_merge(layout, words, left, right, new_id):
    """Merge on the layout and in `words` with the oracle; the results must
    agree, and the merged slots must be those that hold new_id, one right
    slot set to -1 for each."""
    dead = int(np.count_nonzero(layout[0] == -1))
    merged = merge(layout, left, right, new_id)
    words = oracle_words(words, left, right, new_id)
    assert read_words(*layout) == words
    assert merged.dtype == np.int64
    assert merged.tolist() == np.flatnonzero(layout[0] == new_id).tolist()
    assert np.count_nonzero(layout[0] == -1) == dead + merged.size
    return words


# words of 1-8 symbols over a 3-symbol alphabet: runs of left == right and
# pairs across word boundaries are common
MERGE_WORDS = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=8), max_size=12)


@settings(max_examples=300, deadline=None)
@given(MERGE_WORDS, st.integers(0, 2), st.integers(0, 2))
@example([[0], [1]], 0, 1)  # the only (0, 1) crosses the boundary
@example([[1, 1], [1, 1, 1]], 1, 1)
def test_apply_merge_whole_array_equals_per_word_oracle(words, left, right):
    check_merge(linked(words), words, left, right, 9)


def two_merges(alphabet):
    """Words of 1-12 symbols over `alphabet` as ids (a = 0, b = 1), a first
    merge over those symbols, and a second that may also take the first's
    new symbol 2, so that its runs and links cross slots the first unlinked."""
    symbols = ["ab".index(ch) for ch in alphabet]
    return st.tuples(
        st.lists(st.lists(st.sampled_from(symbols), min_size=1, max_size=12), max_size=10),
        st.tuples(st.sampled_from(symbols), st.sampled_from(symbols)),
        st.tuples(st.sampled_from(symbols + [2]), st.sampled_from(symbols + [2])),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["a", "aab"]).flatmap(two_merges))
@example(([[0] * 9, [0] * 4], (0, 0), (2, 2)))
@example(([[0] * 7], (0, 0), (2, 0)))
@example(([[0, 0, 1, 0, 0, 1, 0, 0]], (0, 0), (2, 1)))
def test_apply_merge_twice_equals_oracle_applied_twice(case):
    words, first, second = case
    layout = linked(words)
    words = check_merge(layout, words, *first, 2)
    check_merge(layout, words, *second, 3)


def mask_one_row(ids, special, seed, *args):
    """mask_sequence on a batch of one row; the row's masked ids, positions and labels."""
    out, pos, lab = kernels.mask_sequence(ids[None], special[None], np.array([seed], np.uint64), *args)
    return out[0], pos[0], lab[0]


def test_mask_sequence_respects_specials_and_cap():
    ids = np.arange(5, 105, dtype=np.int32)
    special = np.zeros(100, np.uint8)
    special[0] = special[50] = special[99] = 1
    out, pos, lab = mask_one_row(ids, special, 123, 0.15, 10, 4, 5, 1000)
    assert len(pos) == 10  # round(0.15 * 97) = 15, capped at 10
    assert not {0, 50, 99} & set(int(p) for p in pos)
    assert np.array_equal(lab, ids[pos])
    untouched = np.setdiff1d(np.arange(100), pos)
    assert np.array_equal(out[untouched], ids[untouched])


def test_mask_sequence_zero_candidates():
    ids = np.array([2, 3, 3], np.int32)
    special = np.ones(3, np.uint8)
    out, pos, lab = mask_one_row(ids, special, 1, 0.15, 20, 4, 5, 100)
    assert pos.size == 0 and lab.size == 0
    assert np.array_equal(out, ids)


def test_mask_sequence_minimum_one_position():
    ids = np.array([2, 9, 3], np.int32)
    special = np.array([1, 0, 1], np.uint8)
    out, pos, lab = mask_one_row(ids, special, 7, 0.15, 20, 4, 5, 100)
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
