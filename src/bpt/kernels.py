"""The pipeline's numeric inner loops, written with numpy.

Pair counting and merge application run during vocabulary training, mask
selection during instance generation. `count_pairs` sums weights by key and
knows nothing of words or of how a pair is keyed; the trainer calls it on
every pair of the starting words, then once per merge on that merge's
changes. Merges run on a linked layout of one flat symbol array, so that one
merge costs one compare over the array plus work in the occurrences it
merges, not a copy of every word. Masking consumes draws from the splitmix64
stream of rng.py in a fixed order, so its output depends only on its
arguments.

`mask_sequence` takes a batch: 2-D ids and special flags, every row padded
to one width, with one uint64 seed per row. Padding must be flagged special,
so it is never chosen and comes back as given; each row is masked exactly as
it would be on its own.

Callers reach these as module attributes (``kernels.count_pairs`` and so on),
so a profiler can swap in a timed wrapper.
"""

from __future__ import annotations

import numpy as np

from .rng import _GAMMA

BACKEND = "numpy"  # reported by tools that record the machine set-up


# ---------------------------------------------------------------------------
# BPE pair counting: the sum of the weights of each distinct pair key. The
# keys arrive in any order and may repeat, and weights may be negative, so
# one call sums both a first count and one merge's changes to it.
# ---------------------------------------------------------------------------


def count_pairs(keys, weights):
    """The distinct keys in ascending order, and the summed weight of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    keys = keys[starts]  # the sorted copy goes before the weights are gathered
    return keys, np.add.reduceat(weights[order], starts)


# ---------------------------------------------------------------------------
# BPE merge application on the linked layout: `flat` keeps one slot per
# symbol of the starting words for the whole run, and nxt[i] and prv[i] link
# slot i to its neighbours in its word (-1 at either end). One compare over
# flat finds the left symbols; each is checked against its linked right
# neighbour. The non-overlapping left-to-right occurrences get new_id in
# their left slot, and their right slot is unlinked and set to -1. A dead
# slot's own links are left as they were and never read again.
# ---------------------------------------------------------------------------


def apply_merge(flat, nxt, prv, left, right, new_id):
    """Merge (left, right) in place; returns the merged (left) slots in
    ascending order."""
    merged = np.flatnonzero(flat == left)
    gone = nxt[merged]
    hit = (flat[gone] == right) & (gone >= 0)
    merged, gone = merged[hit], gone[hit]
    if left == right and merged.size > 1:
        # Overlapping occurrences chain: one's right slot is the next one's
        # left slot. Left to right, every other occurrence of a chain is kept.
        starts = np.ones(merged.size, bool)
        starts[1:] = merged[1:] != gone[:-1]
        chain_start = np.flatnonzero(starts)[np.cumsum(starts) - 1]
        first = (np.arange(merged.size) - chain_start) % 2 == 0
        merged, gone = merged[first], gone[first]
    after = nxt[gone]
    flat[merged] = new_id
    flat[gone] = -1
    nxt[merged] = after
    linked = after >= 0
    prv[after[linked]] = merged[linked]
    return merged


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


def mask_sequence(ids, special, seeds, prob, cap, mask_id, n_special, vocab_size):
    """Mask every row of a padded batch in one call.

    `ids` and `special` (nonzero = never masked) are 2-D, their rows padded
    to one width with the padding flagged special, and `seeds` holds one
    uint64 seed per row. Returns the masked ids and (rows, k) positions and
    labels, k the most positions any row masked, each row's own entries
    first (positions ascending) and -1 after them.
    """
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
    swap_with = np.arange(k) + (_draws(seeds, np.zeros(rows, np.int64), k) % span).astype(np.int64)
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
    draws = _draws(seeds, num, 2 * k)
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

    return out, positions, labels
