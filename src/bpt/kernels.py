"""The pipeline's numeric inner loops, written with numpy.

Pair counting and merge application run during vocabulary training, mask
selection during instance generation. `count_pairs` sums weights by key and
knows nothing of words or of how a pair is keyed; only `pair_keys` and
`key_pair` know the key format. The trainer (`vocab.train_bpe`) keeps its
pair totals in a `PairTotals`, which passes every pair of the starting
words, then each merge's changes (`merge_deltas`), through `count_pairs`.
Merges run on a linked layout of one flat symbol array, so that one merge
costs one compare over the array plus work in the occurrences it merges,
not a copy of every word. Masking consumes draws from the splitmix64 stream
of rng.py in a fixed order, so its output depends only on its arguments.

`mask_sequence` takes a batch: 2-D ids and special flags, every row padded
to one width, with one uint64 seed per row. Padding must be flagged special,
so it is never chosen and comes back as given; each row is masked exactly as
it would be on its own.

Callers reach these as module attributes (``kernels.count_pairs`` and so on),
and `PairTotals.add` calls `count_pairs` by its module-level name, so a
profiler can swap in a timed wrapper. The trainer's numpy code lives here,
not in `vocab`: `vocab` imports this module, and numpy, only when
`train_bpe` runs, so commands that train nothing never load numpy.
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


def pair_keys(left, right):
    """Sort keys of (left, right) symbol pairs: the larger id, then the
    smaller, then whether the larger is on the left. Every pair that holds
    the newest token thus sorts after every pair that does not."""
    high = np.maximum(left, right).astype(np.int64)
    low = np.minimum(left, right).astype(np.int64)
    return high << 32 | low << 1 | (left > right)


def key_pair(key: int) -> tuple[int, int]:
    high, low = key >> 32, (key >> 1) & 0x7FFFFFFF
    return (high, low) if key & 1 else (low, high)


def count_pairs(keys, weights):
    """The distinct keys in ascending order, and the summed weight of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    keys = keys[starts]  # the sorted copy goes before the weights are gathered
    return keys, np.add.reduceat(weights[order], starts)


class PairTotals:
    """Summed word counts of adjacent symbol pairs, in arrays sorted by
    `pair_keys` with room to grow at the end. A total that falls to 0 stays
    until the arrays are full; then such totals are dropped before the
    arrays grow."""

    def __init__(self):
        self.keys, self.totals, self.size = np.empty(0, np.int64), np.empty(0, np.int64), 0

    def best(self):
        """The largest total and the keys that have it."""
        totals = self.totals[: self.size]
        best = int(totals.max(initial=0))
        return best, self.keys[: self.size][totals == best]

    def add(self, keys, weights) -> None:
        """Add each weight to the total of its pair key; keys may repeat."""
        keys, weights = count_pairs(keys, weights)
        held = self.keys[: self.size]
        at = np.searchsorted(held, keys)
        found = at < held.size
        found[found] = held[at[found]] == keys[found]
        self.totals[at[found]] += weights[found]
        fresh = ~found
        into = at[fresh]
        if not into.size:
            return
        if into[0] < self.size:  # the merge made a token that already existed
            self.keys = np.insert(held, into, keys[fresh])
            self.totals = np.insert(self.totals[: self.size], into, weights[fresh])
            self.size = self.keys.size
        else:
            if self.size + into.size > self.keys.size:
                self._make_room(into.size)
            end = self.size + into.size
            self.keys[self.size : end] = keys[fresh]
            self.totals[self.size : end] = weights[fresh]
            self.size = end

    def _make_room(self, extra: int) -> None:
        live = self.totals[: self.size] != 0
        keys, totals = self.keys[: self.size][live], self.totals[: self.size][live]
        capacity = 2 * (keys.size + extra)
        self.keys = np.empty(capacity, np.int64)
        self.totals = np.empty(capacity, np.int64)
        self.size = keys.size
        self.keys[: self.size] = keys
        self.totals[: self.size] = totals


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


def merge_deltas(flat, nxt, prv, at, weight, left, right, new):
    """Pair keys and weights that sum to the change one merge made to the
    pair totals, read from the merged slots `at` (ascending) after the
    merge; `weight` holds their words' counts.

    Before the merge an occurrence held the pairs (previous, left),
    (left, right) and (right, next); after it, (previous, new) and
    (new, next). Only dead slots lie between linked slots, so a merged
    slot's next slot is merged too exactly when it is the next entry of
    `at`. Such a next slot held `left` before the merge, and the pair
    between the two is counted once, as the next pair of the first.
    """
    prev, nexts = prv[at], nxt[at]
    next_merged = np.zeros(at.size, bool)
    next_merged[:-1] = at[1:] == nexts[:-1]
    has_prev = prev >= 0
    has_prev[1:] &= ~next_merged[:-1]
    has_next = nexts >= 0
    p, wp = flat[prev[has_prev]], weight[has_prev]
    n, wn = flat[nexts[has_next]], weight[has_next]
    k, j = p.size, n.size
    # rows: (previous, left), (previous, new), (right, next), (new, next), (left, right)
    lefts = np.empty(2 * k + 2 * j + 1, np.int64)
    rights = np.empty_like(lefts)
    lefts[:k] = lefts[k : 2 * k] = p
    rights[:k], rights[k : 2 * k] = left, new
    lefts[2 * k : 2 * k + j], lefts[2 * k + j : -1] = right, new
    rights[2 * k : 2 * k + j] = np.where(next_merged[has_next], left, n)
    rights[2 * k + j : -1] = n
    lefts[-1], rights[-1] = left, right
    weights = np.concatenate([-wp, wp, -wn, wn, [-weight.sum()]])
    return pair_keys(lefts, rights), weights


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
