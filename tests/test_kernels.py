"""Edge cases of the numeric kernels. BPE training as a whole is pinned by
the merge-for-merge oracle test (C07), merge application on the linked
layout by the per-word oracle below, once and twice in a row, together with
the pair totals and slots it keeps, masking by the golden-value test in
test_instances.py and the batch kernel by the one-sequence oracle below."""

import copy
from array import array
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import kernels
from .oracles import apply_merge_oracle, mask_sequence_oracle

WIDTH = 10  # above every symbol id below


def linked(words):
    """The linked layout of a list of words, word i weighing i + 1, with its
    pair totals and slots: (flat, nxt, prv, weight, totals, where), and the
    first slot of each word."""
    flat = array("i", [s for word in words for s in word])
    weight = array("q", [i + 1 for i, word in enumerate(words) for _ in word])
    nxt = array("i", range(1, len(flat) + 1))
    prv = array("i", range(-1, len(flat) - 1))
    starts, end = [], 0
    for word in words:
        starts.append(end)
        prv[end] = -1
        end += len(word)
        nxt[end - 1] = -1
    totals, where = kernels.count_pairs(flat, nxt, weight, WIDTH)
    return (flat, nxt, prv, weight, totals, where), starts


def read_words(layout, starts):
    """The words of a linked layout, read by walking nxt from each word's
    first slot; checks that prv links each slot back to the one before it."""
    flat, nxt, prv = layout[:3]
    words = []
    for slot in starts:
        word, before = [], -1
        while slot >= 0:
            assert prv[slot] == before and flat[slot] >= 0
            word.append(flat[slot])
            before, slot = slot, nxt[slot]
        words.append(word)
    return words


def check_pairs(layout, starts, words):
    """The totals equal a recount of `words`, and each pair of linked slots
    is among its key's slots."""
    flat, nxt, _, _, totals, where = layout
    recount = Counter()
    for i, word in enumerate(words):
        for left, right in zip(word, word[1:]):
            recount[left * WIDTH + right] += i + 1
    assert totals == dict(recount)  # no key is left at 0
    assert where.keys() == totals.keys()
    for slot in starts:
        while nxt[slot] >= 0:
            assert slot in where[flat[slot] * WIDTH + flat[nxt[slot]]]
            slot = nxt[slot]


def merge(layout, left, right, new_id):
    """apply_merge with the pair's slots listed as every slot, last first:
    stale entries, repeats and their order must not change what it does."""
    where = layout[5]
    if left * WIDTH + right in where:
        where[left * WIDTH + right] = array("i", reversed(range(len(layout[0]))))
    return kernels.apply_merge(*layout, WIDTH, left, right, new_id)


def oracle_words(words, left, right, new_id):
    flat, offsets = apply_merge_oracle(words, left, right, new_id)
    return [flat[a:b] for a, b in zip(offsets, offsets[1:])]


def test_count_pairs_totals_and_slots():
    # (1, 2) twice in the second word; (3, 1) only across the word boundary
    (flat, nxt, prv, weight, totals, where), _ = linked([[1, 3], [1, 2, 1, 2]])
    assert totals == {13: 1, 12: 4, 21: 2}
    assert {key: list(slots) for key, slots in where.items()} == {13: [0], 12: [2, 4], 21: [3]}


def test_apply_merge_overlapping_run_is_left_to_right():
    # "aaaa" with merge (a,a) -> (aa)(aa); "aaa" -> (aa)a
    layout, starts = linked([[7, 7, 7, 7], [7, 7, 7]])
    assert merge(layout, 7, 7, 9) == {99, 97}  # (9, 9) and (9, 7)
    assert read_words(layout, starts) == [[9, 9], [9, 7]]
    assert layout[0].tolist() == [9, -1, 9, -1, 9, -1, 7]
    check_pairs(layout, starts, [[9, 9], [9, 7]])


def test_apply_merge_no_match_is_identity():
    layout, _ = linked([[1, 2, 3], [1, 3]])  # (3, 1) only across the word boundary
    before = copy.deepcopy(layout)
    assert merge(layout, 3, 1, 9) == set()
    assert layout == before


def test_apply_merge_into_its_right_symbol_merges_only_what_was_there():
    # (0, 1) -> 1, as "##" + "###" gives the existing "###": in [0, 0, 1] the
    # merge makes a new (0, 1), which a rescan from the left would not merge
    words = [[0, 0, 1], [0, 1, 1]]
    layout, starts = linked(words)
    assert merge(layout, 0, 1, 1) == {1, 11}
    assert read_words(layout, starts) == oracle_words(words, 0, 1, 1) == [[0, 1], [1, 1]]
    check_pairs(layout, starts, [[0, 1], [1, 1]])


def check_merge(layout, starts, words, left, right, new_id):
    """Merge on the layout and in `words` with the oracle; the results must
    agree, one right slot must be set to -1 for each merged slot (new_id is
    new), the pairs reported made must be those that hold new_id, and the
    totals and slots must follow."""
    flat = layout[0]
    dead = flat.count(-1)
    made = merge(layout, left, right, new_id)
    words = oracle_words(words, left, right, new_id)
    assert read_words(layout, starts) == words
    assert flat.count(-1) == dead + flat.count(new_id)
    assert made == {a * WIDTH + b for word in words for a, b in zip(word, word[1:]) if new_id in (a, b)}
    check_pairs(layout, starts, words)
    return words


# words of 1-8 symbols over a 3-symbol alphabet: runs of left == right and
# pairs across word boundaries are common
MERGE_WORDS = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=8), max_size=12)


@settings(max_examples=300, deadline=None)
@given(MERGE_WORDS, st.integers(0, 2), st.integers(0, 2))
@example([[0], [1]], 0, 1)  # the only (0, 1) crosses the boundary
@example([[1, 1], [1, 1, 1]], 1, 1)
def test_apply_merge_whole_array_equals_per_word_oracle(words, left, right):
    check_merge(*linked(words), words, left, right, 9)


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
    layout, starts = linked(words)
    words = check_merge(layout, starts, words, *first, 2)
    check_merge(layout, starts, words, *second, 3)


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
