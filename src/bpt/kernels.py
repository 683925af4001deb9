"""The pipeline's numeric inner loops, written with numpy.

Adjacent-pair counting and merge application run during vocabulary training,
mask selection during instance generation. Masking consumes draws from the
splitmix64 stream of rng.py in a fixed order, so its output depends only on
its arguments.

`mask_sequence` takes one sequence or a batch: a batch is 2-D ids and
special flags, every row padded to one width, with one uint64 seed per row.
Padding must be flagged special, so it is never chosen and comes back as
given; each row is masked exactly as it would be on its own.

Callers reach these as module attributes (``kernels.count_pairs`` and so on),
so a profiler can swap in a timed wrapper.
"""

from __future__ import annotations

import numpy as np

from .rng import _GAMMA, _MASK64

BACKEND = "numpy"  # reported by tools that record the machine set-up

_EMPTY_I64 = np.empty(0, np.int64)
_EMPTY_I32 = np.empty(0, np.int32)


# ---------------------------------------------------------------------------
# BPE pair counting: weighted counts of adjacent symbol pairs across words.
# Words are stored as one flat int32 array of symbol ids plus an offsets array
# (len n_words+1); counts[w] is the corpus frequency of word w. Pairs never
# cross word boundaries. Returns (sorted unique pair keys, summed counts)
# with key = left << 32 | right.
# ---------------------------------------------------------------------------


def count_pairs(flat, offsets, counts):
    lengths = np.diff(offsets)
    if flat.size < 2:
        return _EMPTY_I64, _EMPTY_I64
    word_of = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    valid = word_of[:-1] == word_of[1:]
    if not valid.any():
        return _EMPTY_I64, _EMPTY_I64
    left = flat[:-1][valid].astype(np.int64)
    right = flat[1:][valid].astype(np.int64)
    keys = (left << 32) | right
    weights = counts[word_of[:-1][valid]]
    uniq, inverse = np.unique(keys, return_inverse=True)
    totals = np.zeros(uniq.size, np.int64)
    np.add.at(totals, inverse, weights)
    return uniq, totals


# ---------------------------------------------------------------------------
# BPE merge application: rewrite every word replacing non-overlapping
# left-to-right occurrences of (left, right) with new_id.
# ---------------------------------------------------------------------------


def apply_merge(flat, offsets, left, right, new_id):
    lengths = np.diff(offsets)
    n_words = lengths.size
    if flat.size < 2:
        return flat.copy(), offsets.copy()
    word_of = np.repeat(np.arange(n_words, dtype=np.int64), lengths)
    cand = np.where((flat[:-1] == left) & (flat[1:] == right) & (word_of[:-1] == word_of[1:]))[0]
    if cand.size == 0:
        return flat.copy(), offsets.copy()
    # Overlapping candidates (only possible when left == right) form runs of
    # consecutive positions; greedy left-to-right keeps even offsets in a run.
    new_run = np.ones(cand.size, bool)
    new_run[1:] = np.diff(cand) != 1
    run_ids = np.cumsum(new_run) - 1
    run_starts = cand[new_run][run_ids]
    kept = cand[(cand - run_starts) % 2 == 0]
    out = flat.copy()
    out[kept] = new_id
    keep_mask = np.ones(flat.size, bool)
    keep_mask[kept + 1] = False
    removed_per_word = np.bincount(word_of[kept], minlength=n_words)
    new_offsets = np.zeros_like(offsets)
    np.cumsum(lengths - removed_per_word, out=new_offsets[1:])
    return out[keep_mask], new_offsets


# ---------------------------------------------------------------------------
# MLM masking: choose mask positions uniformly without replacement among
# non-special positions, then per position replace with mask_id (80%), a
# uniform non-special vocab id (10%), or leave unchanged (10%).
#
# Draw i of a row's stream is mix64(seed + i*GAMMA); draws are consumed in
# this order: selection swaps first, then one float per chosen position in
# ascending position order plus one extra integer draw on the
# random-replacement branch. A batch takes each step for all rows at once,
# in uint64 array arithmetic, so a row comes out as it would on its own.
# ---------------------------------------------------------------------------

_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """rng.mix64 of each element of a uint64 array, in place (array
    arithmetic wraps without warning)."""
    z += _GAMMA_U64
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _draws(seeds, done, count):
    """Draws done+1 .. done+count of each row's stream, shape (rows, count)."""
    z = (done[:, None] + np.arange(1, count + 1)).astype(np.uint64)
    z *= _GAMMA_U64
    z += seeds[:, None]
    return _mix64(z)


def mask_sequence(ids, special, seed, prob, cap, mask_id, n_special, vocab_size):
    """Mask one sequence, or every row of a padded batch in one call.

    One sequence: 1-D `ids` and `special` (nonzero = never masked) and an
    integer seed; returns (masked ids, ascending positions, label ids).
    A batch: 2-D `ids` and `special` whose rows are padded to one width,
    with the padding flagged special, and one uint64 seed per row; returns
    the masked ids and (rows, k) positions and labels, k the most positions
    any row masked, each row's own entries first and -1 after them.
    """
    single = ids.ndim == 1
    if single:
        ids, special = ids[None], special[None]
        seed = np.array([int(seed) & _MASK64], np.uint64)
    rows, width = ids.shape
    out = ids.copy()
    free = special == 0
    n = np.count_nonzero(free, axis=1)
    num = np.where(n > 0, np.minimum(cap, np.maximum(1, (prob * n + 0.5).astype(np.int64))), 0)
    k = int(num.max(initial=0))
    chosen = np.arange(k) < num[:, None]
    r = np.arange(rows)

    # partial Fisher-Yates over each row's candidates (ascending, specials
    # after them); past a row's own count a swap only moves later columns
    cand = np.argsort(~free, axis=1, kind="stable")
    span = np.maximum(n[:, None] - np.arange(k), 1).astype(np.uint64)
    swap_with = np.arange(k) + (_draws(seed, np.zeros(rows, np.int64), k) % span).astype(np.int64)
    for i in range(k):
        j = swap_with[:, i]
        held = cand[:, i].copy()
        cand[:, i] = cand[r, j]
        cand[r, j] = held
    cols = np.sort(np.where(chosen, cand[:, :k], width), axis=1)
    cols[~chosen] = 0
    positions = np.where(chosen, cols, -1)
    labels = np.where(chosen, ids[r[:, None], cols], -1).astype(ids.dtype)

    # replacement: at[r] is the next unread draw of row r
    n_random = vocab_size - n_special
    draws = _draws(seed, num, 2 * k)
    at = np.zeros(rows, np.int64)
    for i in range(k):
        ui = (draws[r, at] >> np.uint64(11)) * 2.0**-53
        to_mask = chosen[:, i] & (ui < 0.8)
        out[r[to_mask], cols[to_mask, i]] = mask_id
        if n_random > 0:
            to_random = chosen[:, i] & (ui >= 0.8) & (ui < 0.9)
            hit = r[to_random]
            drawn = n_special + draws[hit, at[to_random] + 1] % n_random
            out[hit, cols[to_random, i]] = drawn.astype(out.dtype)
            at += to_random
        at += 1

    if single:
        m = int(num[0])
        return out[0], positions[0, :m], labels[0, :m]
    return out, positions, labels
