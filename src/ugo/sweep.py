"""Class numbers and 2-torsion of many real discriminants by a range sweep.

`class_numbers(deltas)` returns h+, h and |Cl+[2]| of every requested
discriminant without building its class group.  It works through windows of
the requested discriminants and handles all the forms of a window in a few
numpy passes.  It shares no code with `forms._ClassData`, so each route
checks the other (te Riele & Williams, Exp. Math. 12 (2003), tabulate real
class numbers the same way).

The reducedness window.  A form (a, b, c) of discriminant delta > 0 is
reduced (`forms.is_reduced`) when 0 < b < sqrt(delta) and
|sqrt(delta) - 2|a|| < b.  For a > 0 and c = -k this says exactly that
delta = b*b + 4*a*k with a, b, k >= 1 and max(0, a - b) < k < a + b, a
condition symmetric in a and k.  So the reduced forms with a > 0 are the
triples with gcd(a, b, k) = 1 in that window.  The sweep generates the half
a <= k, where 4*a*a < delta and b runs over the roots of b*b = delta
(mod 4a) in [max(1, w + 1 - 2a), isqrt(delta - 4a*a)], w = isqrt(delta).
That range holds at most 2a integers, so each root mod 2a, read off one
table of the square roots mod 4a for every a, gives at most one b.  The
twins (k, b, -a) complete the set.

Counting.  Each narrow class is one rho-cycle, and rho**2 maps the forms
with a > 0 of a cycle onto themselves, so h+ is the number of
rho**2-cycles among them.  The forms are sorted by an int64 key, rho**2
becomes an index map through `searchsorted`, and min-label pointer jumping
labels each form with the least index of its cycle; h+ is a `bincount` of
the cycle leaders.  h = h+ when the principal form (1, b1, .) and the form
after tau = (-1, b1, .) lie on one cycle, and h+/2 otherwise.  A key that
is not found exactly, or an odd h+ with tau off the principal cycle, raises
ArithmeticError: the forms of the window are then not a complete set.

2-torsion.  The inverse of the class of (a, b, c) holds its reversal
(c, b, a), so the reversal (-k, b, a) of a cycle leader (a, b, -k) is a
reduced form of the inverse class, and one rho step takes it to the form
(a, w - (w + b) mod 2a, .) with a > 0.  A class has order at most 2 exactly
when that form carries the leader's own label, so |Cl+[2]| costs one more
lookup and `bincount`, over the h+ leaders only.

Exactness.  For delta <= MAX_DELTA < 2**31 every product (b*b, 4*a*k, the
squares of the root table) is below 2**31.  A form of delta has
a < 1.5*sqrt(delta) and b < sqrt(delta), so the key (j*R + a)*S + b of the
j-th discriminant of a window, with S = isqrt(delta_max) + 1 and
R = 3*S//2 + 1, stays below 2**14 * 1.5 * 2**31 < 2**63.  Float square roots
are corrected to exact integer ones.

Memory.  A window holds the discriminants whose pairs (delta, a <= k) add
up to at most _WINDOW_PAIRS = 2**14, about 85 discriminants near 1.5*10**5
and 32 near 10**6, and it takes about 150 bytes per pair: 2.5 MB.  The root
table takes 2 bytes per unit of the largest delta (0.3 MB at 1.5*10**5,
20 MB at 10**7), and it is built on the first call, not at import.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DELTA = (1 << 31) - 1
_WINDOW_PAIRS = 1 << 14


def _isqrt(x: np.ndarray) -> np.ndarray:
    # Elementwise floor square root of a nonnegative int64 array.
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # The concatenation of range(s, s + c) for s, c in zip(starts, counts).
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


_table_a = 0
_table: tuple[np.ndarray, np.ndarray] | None = None


def _root_table(amax: int) -> tuple[np.ndarray, np.ndarray]:
    # (ptr, roots): for a <= amax and r = 0, 1 (mod 4), the rho in [0, 2a)
    # with rho**2 = r (mod 4a) are roots[ptr[i]:ptr[i + 1]], at the slot
    # i = a*(a - 1) + (r >> 1 | r & 1).  Grown on demand, like spf_table.
    global _table, _table_a
    if _table is None or _table_a < amax:
        a = np.arange(1, amax + 1, dtype=np.int32)
        sizes = 2 * a
        a = np.repeat(a, sizes)
        rho = _ragged(np.zeros(amax, dtype=np.int32), sizes).astype(np.int32)
        r = rho * rho % (4 * a)
        slot = a * (a - 1) + (r >> 1 | r & 1)
        ptr = np.zeros(amax * (amax + 1) + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot, minlength=amax * (amax + 1)), out=ptr[1:])
        _table = ptr, rho[np.argsort(slot, kind="stable")]
        _table_a = amax
    return _table


def _reduced_forms(deltas: np.ndarray):
    """(j, a, b) of every primitive reduced form (a, b, -k) with a > 0 of
    the discriminants deltas[j]."""
    # One query (delta, a) per a with 4a*a < delta.  Each root rho mod 2a of
    # b*b = delta (mod 4a) gives the least b = rho (mod 2a) with
    # b >= max(1, w + 1 - 2a); it is a form when b*b + 4a*a <= delta.
    amax = _isqrt((deltas - 1) >> 2)
    ptr, roots = _root_table(int(amax[-1]))
    j = np.repeat(np.arange(len(deltas)), amax)
    a = _ragged(np.ones(len(deltas), dtype=np.int64), amax)
    r = deltas[j] % (4 * a)
    slot = a * (a - 1) + (r >> 1 | r & 1)
    first = ptr[slot]
    count = ptr[slot + 1] - first
    rho = roots[_ragged(first, count)]
    j = np.repeat(j, count)
    a = np.repeat(a, count)
    d = deltas[j]
    b0 = np.maximum(_isqrt(deltas)[j] + 1 - 2 * a, 1)
    b = b0 + (rho - b0) % (2 * a)
    keep = b * b + 4 * a * a <= d
    j, a, b, d = j[keep], a[keep], b[keep], d[keep]
    k = (d - b * b) // (4 * a)
    # The imprimitive forms (gcd > 1, possible when a square divides delta)
    # belong to no class.
    keep = np.gcd(np.gcd(a, b), k) == 1
    j, a, b, k = j[keep], a[keep], b[keep], k[keep]
    twin = a < k
    return (
        np.concatenate((j, j[twin])),
        np.concatenate((a, k[twin])),
        np.concatenate((b, b[twin])),
    )


def _locate(keys: np.ndarray, targets: np.ndarray, what: str) -> np.ndarray:
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
    keys = (j * r + a) * s + b
    keys.sort()
    w = _isqrt(deltas)
    b1 = w - ((w ^ deltas) & 1)
    k1 = (deltas - b1 * b1) >> 2
    off = np.arange(n) * r
    principal = _locate(keys, (off + 1) * s + b1, "principal")
    tau = _locate(keys, (off + k1) * s + w - (w + b1) % (2 * k1), "tau")
    b = keys % s
    t = keys // s
    a = t % r
    j = t // r
    del t
    d = deltas[j]
    k = (d - b * b) // (4 * a)
    wj = w[j]
    nb = wj - (wj + b) % (2 * k)
    nc = (d - nb * nb) // (4 * k)
    nxt = _locate(keys, (j * r + nc) * s + wj - (wj + nb) % (2 * nc), "rho**2")
    del a, b, d, k, wj, nb, nc
    label = np.arange(len(keys))
    while True:
        new = np.minimum(label, label[nxt])
        if np.array_equal(new, label):
            break
        label = new
        nxt = nxt[nxt]
    lead = np.flatnonzero(label == np.arange(len(keys)))
    j = j[lead]
    h_plus = np.bincount(j, minlength=n)
    same = label[principal] == label[tau]
    if np.any(~same & (h_plus & 1 == 1)):
        raise ArithmeticError("odd narrow class number with tau off the principal cycle")
    # The rho image (a, nb, .) of the reversal of leader t has the key t - b + nb.
    t = keys[lead]
    b = t % s
    wj = w[j]
    inverse = _locate(keys, t - b + wj - (wj + b) % (2 * (t // s % r)), "inverse")
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
    # Windows of consecutive deltas with at most _WINDOW_PAIRS pairs (delta, a).
    queries = np.cumsum(_isqrt((deltas - 1) >> 2))
    i = 0
    while i < len(deltas):
        base = queries[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(queries, base + _WINDOW_PAIRS, "right")))
        out[:, i:j] = _count(deltas[i:j], *_reduced_forms(deltas[i:j]))
        i = j
    return tuple(out)
