"""The pipeline's numeric inner loops, written with numpy.

Adjacent-pair counting and merge application run during vocabulary training,
per-sequence mask selection during instance generation. Masking consumes
draws from the splitmix64 stream of rng.py in a fixed order, so its output
depends only on its arguments.

Callers reach these as module attributes (``kernels.count_pairs`` and so on),
so a profiler can swap in a timed wrapper.
"""

from __future__ import annotations

import numpy as np

from .rng import _GAMMA, _MASK64, mix64

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
# Draw i of the stream is mix64(seed + i*GAMMA); draws are consumed in this
# order: selection swaps first, then one float per chosen
# position plus one extra integer draw on the random-replacement branch.
# ---------------------------------------------------------------------------


def mask_sequence(ids, special, seed, prob, cap, mask_id, n_special, vocab_size):
    out = ids.copy()
    cand = [i for i in range(len(ids)) if not special[i]]
    n = len(cand)
    if n == 0:
        return out, _EMPTY_I64.copy(), _EMPTY_I32.copy()
    num = min(cap, max(1, int(prob * n + 0.5)))
    state = int(seed) & _MASK64  # plain int: numpy scalars overflow in mix64
    ctr = 0
    for i in range(num):
        ctr += 1
        r = mix64((state + ctr * _GAMMA) & _MASK64)
        j = i + r % (n - i)
        cand[i], cand[j] = cand[j], cand[i]
    sel = sorted(cand[:num])
    positions = np.asarray(sel, np.int64)
    labels = out[positions].copy()
    n_random = vocab_size - n_special
    for p in sel:
        ctr += 1
        u = (mix64((state + ctr * _GAMMA) & _MASK64) >> 11) * 2.0**-53
        if u < 0.8:
            out[p] = mask_id
        elif u < 0.9 and n_random > 0:
            ctr += 1
            r2 = mix64((state + ctr * _GAMMA) & _MASK64)
            out[p] = n_special + r2 % n_random
    return out, positions, labels
