"""Class numbers and 2-torsion of many real discriminants by a range sweep.

`class_numbers(deltas)` returns h+, h and |Cl+[2]| of every requested
discriminant in [5, MAX_DELTA = 10**7] without building its class group.
It works through windows of the requested discriminants and handles all the
forms of a window in a few numpy passes.  It shares no code with
`forms._ClassData`, so each route checks the other (te Riele & Williams,
Exp. Math. 12 (2003), tabulate real class numbers the same way).

The reducedness window.  A form (a, b, c) of discriminant delta > 0 is
reduced (`forms.is_reduced`) when 0 < b < sqrt(delta) and
|sqrt(delta) - 2|a|| < b.  For a > 0 and c = -k this says exactly that
delta = b*b + 4*a*k with a, b, k >= 1 and max(0, a - b) < k < a + b, a
condition symmetric in a and k.  So the reduced forms with a > 0 are the
triples with gcd(a, b, k) = 1 in that window.  The sweep generates the half
a <= k, where 4*a*a < delta and b runs over the roots of b*b = delta
(mod 4a) in [max(1, w + 1 - 2a), isqrt(delta - 4a*a)], w = isqrt(delta).
That range holds at most 2a integers, so each root rho mod 2a, read off one
table of the square roots mod 4a for every a, gives at most one b.  As
b = rho (mod 2a), gcd(a, b) = gcd(a, rho), which the table keeps beside
each root, so only the forms where it exceeds 1 take a gcd with k.  The
twins (k, b, -a) complete the set.

Counting.  Each narrow class is one rho-cycle, and rho**2 maps the forms
with a > 0 of a cycle onto themselves, so h+ is the number of
rho**2-cycles among them.  Each form (j, a, b) has an int64 key, and so
has its rho**2 image.  Sorted, the images must equal the sorted keys,
which says that rho**2 permutes the forms of the window; the two sort
orders, inverted, then give rho**2 as an index map.  Min-label pointer
jumping labels each form with the least index of its cycle, and h+ is a
`bincount` of the cycle leaders.  h = h+ when the principal form
(1, b1, .) and the form after tau = (-1, b1, .) lie on one cycle, and
h+/2 otherwise.  Images that are not the forms, a principal, tau or
inverse key that is not found, or an odd h+ with tau off the principal
cycle, raise ArithmeticError: the forms of the window are then not a
complete set.

2-torsion.  The inverse of the class of (a, b, c) holds its reversal
(c, b, a), so the reversal (-k, b, a) of a cycle leader (a, b, -k) is a
reduced form of the inverse class, and one rho step takes it to the form
(a, w - (w + b) mod 2a, .) with a > 0.  A class has order at most 2 exactly
when that form carries the leader's own label, so |Cl+[2]| costs one more
lookup and `bincount`, over the h+ leaders only.

Exactness.  For delta <= MAX_DELTA < 2**31 every product (b*b, 4*a*k, the
squares of the root table) is below 2**31, so the forms are int32 arrays
(j, a, b) and the arithmetic per form is int32; a root rho < 2a and its
gcd fit in 16 bits.  A form of delta has a < 1.5*sqrt(delta) and
b < sqrt(delta), so with S = isqrt(delta_max) + 1 and R = 3*S//2 + 1,
j*R + a < 2**14 * 1.5 * 2**15.5 < 2**31 for the j-th discriminant of a
window, and the int64 key (j*R + a)*S + b stays below 2**47.  Float
square roots are corrected to exact integer ones.

Memory.  A window holds the discriminants whose pairs (delta, a <= k) add
up to at most _WINDOW_PAIRS = 2**14, about 85 discriminants near 1.5*10**5
and 32 near 10**6, and it takes about 85 bytes per pair: 1.4 MB.  The root
table takes 2 bytes per unit of the largest delta (an int32 pointer per
slot, a uint16 root and gcd per root; 0.3 MB at 1.5*10**5, 20 MB at the
top of the range, 10**7, and over 4 GB at 2**31); a call builds it for its
largest delta before its first window.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DELTA = 10**7
_WINDOW_PAIRS = 1 << 14


def _isqrt(x: np.ndarray) -> np.ndarray:
    # Elementwise floor square root of a nonnegative int64 array.
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (owner, items): items concatenates range(s, s + c) for s, c in
    # zip(starts, counts), in the dtype of starts, and owner holds the index
    # of each item's range.
    owner = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    shift = (starts - np.cumsum(counts) + counts).astype(starts.dtype)
    return owner, np.arange(len(owner), dtype=starts.dtype) + shift[owner]


_table_a = 0
_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _root_table(amax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (ptr, roots, gcds): for a <= amax and r = 0, 1 (mod 4), the rho in
    # [0, 2a) with rho**2 = r (mod 4a) are roots[ptr[i]:ptr[i + 1]], at the
    # slot i = a*(a - 1) + (r >> 1 | r & 1), and gcds holds gcd(a, rho)
    # beside each root.  Rebuilt when a larger amax is asked for.
    global _table, _table_a
    if _table is None or _table_a < amax:
        a, rho = _ragged(np.zeros(amax, dtype=np.int32), 2 * np.arange(1, amax + 1))
        a += 1
        r = rho * rho % (4 * a)
        slot = a * (a - 1) + (r >> 1 | r & 1)
        ptr = np.zeros(amax * (amax + 1) + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot, minlength=amax * (amax + 1)), out=ptr[1:])
        order = np.argsort(slot, kind="stable")
        _table = ptr, rho[order].astype(np.uint16), np.gcd(a, rho)[order].astype(np.uint16)
        _table_a = amax
    return _table


def _reduced_forms(deltas: np.ndarray):
    """(j, a, b) of every primitive reduced form (a, b, -k) with a > 0 of
    the discriminants deltas[j], as int32 arrays."""
    # One query (j, a) per a with 4a*a < delta = deltas[j].  Each root rho
    # mod 2a of b*b = delta (mod 4a) gives the least b = rho (mod 2a) with
    # b >= b0 = max(1, w + 1 - 2a); it is a form when k = (delta - b*b)/4a >= a.
    amax = _isqrt((deltas - 1) >> 2)
    ptr, roots, gcds = _root_table(int(amax[-1]))
    jq, aq = _ragged(np.ones(len(deltas), dtype=np.int32), amax)
    dq = deltas.astype(np.int32)[jq]
    r = dq % (4 * aq)
    slot = aq * (aq - 1) + (r >> 1 | r & 1)
    first = ptr[slot]
    q, i = _ragged(first, ptr[slot + 1] - first)
    b0 = np.maximum(_isqrt(deltas).astype(np.int32)[jq] + 1 - 2 * aq, 1)[q]
    a = aq[q]
    b = b0 + (roots[i] - b0) % (2 * a)
    k = (dq[q] - b * b) // (4 * a)
    # b = rho (mod 2a) gives gcd(a, b) = gcd(a, rho), so only the forms with
    # a table gcd g > 1 can be imprimitive (gcd(g, k) > 1, possible when a
    # square divides delta); those belong to no class.
    keep = k >= a
    odd = np.flatnonzero(keep & (gcds[i] > 1))
    keep[odd] = np.gcd(gcds[i[odd]], k[odd]) == 1
    keep = np.flatnonzero(keep)
    j, a, b, k = jq[q[keep]], a[keep], b[keep], k[keep]
    twin = np.flatnonzero(a < k)
    return (
        np.concatenate((j, j[twin])),
        np.concatenate((a, k[twin])),
        np.concatenate((b, b[twin])),
    )


def _locate(keys: np.ndarray, targets: np.ndarray, what: str) -> np.ndarray:
    # The positions of targets among the sorted keys.
    i = np.searchsorted(keys, targets)
    np.minimum(i, len(keys) - 1, out=i)
    if not np.array_equal(keys[i], targets):
        raise ArithmeticError(f"{what} key not among the forms of the window")
    return i


def _count(deltas: np.ndarray, j, a, b):
    """h+, h and |Cl+[2]| of each of deltas from its forms (j, a, b)."""
    n = len(deltas)
    s = math.isqrt(int(deltas[-1])) + 1
    r = 3 * s // 2 + 1

    def key(j, a, b):
        return (j * r + a).astype(np.int64) * s + b

    keys = key(j, a, b)
    order = np.argsort(keys)
    keys = keys[order]
    w = _isqrt(deltas)
    b1 = w - ((w ^ deltas) & 1)
    k1 = (deltas - b1 * b1) >> 2
    off = np.arange(n)
    principal = order[_locate(keys, key(off, 1, b1), "principal")]
    tau = order[_locate(keys, key(off, k1, w - (w + b1) % (2 * k1)), "tau")]
    # rho**2 of (a, b, -k) is (nc, wj - (wj + nb) mod 2nc, .) after the
    # step to (-k, nb, nc).  Its images, sorted, must be the sorted keys:
    # rho**2 then permutes the forms of the window.
    w = w.astype(np.int32)
    wj = w[j]
    d = deltas.astype(np.int32)[j]
    k = (d - b * b) // (4 * a)
    nb = wj - (wj + b) % (2 * k)
    nc = (d - nb * nb) // (4 * k)
    image = key(j, nc, wj - (wj + nb) % (2 * nc))
    del wj, d, k, nb, nc
    image_order = np.argsort(image)
    if not np.array_equal(image[image_order], keys):
        raise ArithmeticError("rho**2 images are not the forms of the window")
    nxt = np.empty_like(order)
    nxt[image_order] = order
    # After t rounds label[x] is the least index among the 2**t forms from x
    # on, so (m - 1).bit_length() rounds cover cycles of up to m forms.
    label = np.arange(len(keys))
    for _ in range(int(np.bincount(j).max() - 1).bit_length()):
        np.minimum(label, label[nxt], out=label)
        nxt = nxt[nxt]
    lead = np.flatnonzero(label == np.arange(len(keys)))
    j, a, b = j[lead], a[lead], b[lead]
    h_plus = np.bincount(j, minlength=n)
    same = label[principal] == label[tau]
    if np.any(~same & (h_plus & 1 == 1)):
        raise ArithmeticError("odd narrow class number with tau off the principal cycle")
    # The rho image (a, nb, .) of the reversal of a leader (a, b, -k).
    wj = w[j]
    inverse = order[_locate(keys, key(j, a, wj - (wj + b) % (2 * a)), "inverse")]
    two = np.bincount(j[label[inverse] == lead], minlength=n)
    return h_plus, np.where(same, h_plus, h_plus >> 1), two


def class_numbers(deltas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h+, h, |Cl+[2]|) of the ascending, distinct real discriminants in
    `deltas`, each in [5, MAX_DELTA], as int64 arrays."""
    deltas = np.asarray(deltas, dtype=np.int64)
    out = np.empty((3, len(deltas)), dtype=np.int64)
    if not len(deltas):
        return tuple(out)
    if deltas[0] < 5 or deltas[-1] > MAX_DELTA or np.any(np.diff(deltas) <= 0):
        raise ValueError("deltas must ascend strictly within [5, MAX_DELTA]")
    if np.any((deltas & 3 > 1) | (_isqrt(deltas) ** 2 == deltas)):
        raise ValueError("deltas must be discriminants")
    # The root table for the largest delta, built once: the slot layout does
    # not depend on amax, so every window reads it unchanged.
    _root_table(math.isqrt((int(deltas[-1]) - 1) >> 2))
    # Windows of consecutive deltas with at most _WINDOW_PAIRS pairs (delta, a).
    queries = np.cumsum(_isqrt((deltas - 1) >> 2))
    i = 0
    while i < len(deltas):
        base = queries[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(queries, base + _WINDOW_PAIRS, "right")))
        out[:, i:j] = _count(deltas[i:j], *_reduced_forms(deltas[i:j]))
        i = j
    return tuple(out)
