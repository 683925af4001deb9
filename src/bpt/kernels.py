"""The pipeline's inner loops: BPE pair counting and merging, in plain
Python, and mask selection, in numpy.

Pair counting and merge application run during vocabulary training, mask
selection during instance generation. The trainer (`vocab.train_bpe`) makes
its first count with `count_pairs` and each merge with `apply_merge`. Both
work on a linked layout of one symbol array, and keep each pair's total and
the slots where it starts, so that a merge reads only its own occurrences
and the few pairs around them, not the whole array. Masking consumes draws
from the splitmix64 stream of rng.py in a fixed order, so its output
depends only on its arguments.

`mask_sequence` takes a batch: 2-D ids and special flags, every row padded
to one width, with one uint64 seed per row. Padding must be flagged special,
so it is never chosen and comes back as given; each row is masked exactly as
it would be on its own.

Callers reach these as module attributes (``kernels.count_pairs`` and so
on), so a profiler can swap in a timed wrapper. Only `mask_sequence` imports
numpy, when it runs, so training a vocabulary never loads numpy.
"""

from __future__ import annotations

from array import array
from itertools import count

from .rng import _GAMMA

BACKEND = "numpy"  # the masking kernel's; reported by tools that record the machine set-up


# ---------------------------------------------------------------------------
# BPE on the linked layout: `flat` keeps one slot per symbol of the starting
# words for the whole run, nxt[i] and prv[i] link slot i to its neighbours in
# its word (-1 at either end), and weight[i] is the count of its word. The
# pair (left, right) has the key left * width + right, `width` above every
# token id. `totals` maps a key to the summed weight of its occurrences, and
# `where` maps it to the slots where it started, in an array("i"). An entry
# of `where` is never removed on its own: it is live only while
# flat[s] == left and flat[nxt[s]] == right, and is checked when read. A key
# whose total falls to 0 leaves both dicts. The updates to both dicts are
# written out where they happen rather than called: through two helpers,
# training 500k words to 1,000 tokens took about 10% longer.
# ---------------------------------------------------------------------------


def count_pairs(flat, nxt, weight, width):
    """`totals` and `where` of every pair of linked slots."""
    totals: dict[int, int] = {}
    where: dict[int, array] = {}
    for s, left, n, w in zip(count(), flat, nxt, weight):
        if n >= 0:
            key = left * width + flat[n]
            if key in totals:
                totals[key] += w
                where[key].append(s)
            else:
                totals[key] = w
                where[key] = array("i", (s,))
    return totals, where


def apply_merge(flat, nxt, prv, weight, totals, where, width, left, right, new_id):
    """Merge every live (left, right) occurrence in place, left to right in
    each word, and move `totals` and `where` with it; returns the keys of
    the pairs it made that are still there, each holding new_id.

    The occurrence at slot s with right slot r held the pairs (previous,
    left), (left, right) and (right, next). After it, s holds new_id and
    links to next, r is set to -1, and the pairs are (previous, new_id) and
    (new_id, next). A dead slot's links are left as they were and never read
    again. The pair's slots are visited once each, and each is checked
    against the layout as the occurrences before it left it. In a run of
    left == right they are visited in ascending order: the slot after a
    merged occurrence is dead then, so every other occurrence is merged. The
    same order keeps a new_id equal to `right` from merging an occurrence
    that only the merge made.
    """
    key = left * width + right
    if key not in totals:
        return set()
    slots, where[key] = where[key], array("i")  # pairs the merge makes go in the new array
    if left == right or new_id == right:
        slots = sorted(slots)
    made = set()
    gone = 0  # taken from the pair's own total at the end, so that it stays above 0 until then
    for s in slots:
        r = nxt[s]
        if flat[s] != left or r < 0 or flat[r] != right:
            continue
        w = weight[s]
        gone += w
        p, n = prv[s], nxt[r]
        flat[s], flat[r], nxt[s] = new_id, -1, n
        if p >= 0:
            k = flat[p] * width + left  # (previous, left) ends
            total = totals[k] - w
            if total:
                totals[k] = total
            else:
                del totals[k], where[k]
            k += new_id - left  # (previous, new_id) begins
            made.add(k)
            if k in totals:
                totals[k] += w
                where[k].append(p)
            else:
                totals[k] = w
                where[k] = array("i", (p,))
        if n >= 0:
            prv[n] = s
            k = right * width + flat[n]  # (right, next) ends
            total = totals[k] - w
            if total:
                totals[k] = total
            else:
                del totals[k], where[k]
            k += (new_id - right) * width  # (new_id, next) begins
            made.add(k)
            if k in totals:
                totals[k] += w
                where[k].append(s)
            else:
                totals[k] = w
                where[k] = array("i", (s,))
    total = totals[key] - gone
    if total:
        totals[key] = total
    else:
        del totals[key], where[key]
    return {k for k in made if k in totals}  # a pair made and ended again in a run is gone


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


def mask_sequence(ids, special, seeds, prob, cap, mask_id, n_special, vocab_size):
    """Mask every row of a padded batch in one call.

    `ids` and `special` (nonzero = never masked) are 2-D, their rows padded
    to one width with the padding flagged special, and `seeds` holds one
    uint64 seed per row. Returns the masked ids and (rows, k) positions and
    labels, k the most positions any row masked, each row's own entries
    first (positions ascending) and -1 after them.
    """
    import numpy as np

    def draws_after(done, count):
        """Draws done+1 .. done+count of each row's stream, shape (rows,
        count): rng.mix64 in uint64 array arithmetic, which wraps without
        warning."""
        z = (done[:, None] + np.arange(1, count + 1)).astype(np.uint64)
        z *= np.uint64(_GAMMA)
        z += seeds[:, None]
        z += np.uint64(_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

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
    swap_with = np.arange(k) + (draws_after(np.zeros(rows, np.int64), k) % span).astype(np.int64)
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
    draws = draws_after(num, 2 * k)
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
