"""Cross-order relations: the conductor class-number formula and trend stats.

The conductor formula predicts h(f**2*delta0) from h(delta0), an exact local
factor built from Kronecker symbols, and the unit index (Cox, *Primes of the
form x^2 + ny^2*, Thm 7.24).  `predicted_class_number` is its one
implementation: `class_number_via_conductor` calls it on validated input, and
the `verify conductor` suite calls it once per conductor with h(delta0) built
once per fundamental discriminant.  Comparing the prediction against direct
cycle enumeration is the strongest inter-module consistency gate in the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cfrac, forms
from .intarith import factor, kronecker_symbol
from .orders import PLUS, UnitGeneratedParam, decompose, is_fundamental_discriminant


@dataclass(frozen=True)
class ConductorFormulaReport:
    delta0: int
    f: int
    h0: int
    local_factor: int
    unit_index: int
    h_predicted: int


@dataclass(frozen=True)
class TrendSample:
    family: str
    n: int
    delta: int
    h: int
    log_h_over_log_n: float


def local_unit_group_factor(delta0: int, f: int) -> int:
    """The exact integer f * prod_{p | f} (1 - chi_delta0(p)/p)."""
    out = 1
    for p, e in factor(f).pairs:
        out *= p ** (e - 1) * (p - kronecker_symbol(delta0, p))
    return out


def class_number_via_conductor(delta0: int, f: int) -> ConductorFormulaReport:
    """Predict h(f**2*delta0) without enumerating forms of that discriminant."""
    if not (delta0 > 0 and is_fundamental_discriminant(delta0)):
        raise ValueError(f"{delta0} is not a positive fundamental discriminant")
    if f < 1:
        raise ValueError("conductor must be >= 1")
    delta = f * f * delta0
    if delta > 1 << 62:
        raise OverflowError(f"discriminant {delta} exceeds 2**62")
    h0 = forms.class_number(delta0)
    return ConductorFormulaReport(
        delta0,
        f,
        h0,
        local_unit_group_factor(delta0, f),
        cfrac.unit_index(delta0, delta),
        predicted_class_number(delta0, f, h0),
    )


def predicted_class_number(delta0: int, f: int, h0: int) -> int:
    """h(f**2*delta0) = h0 * local factor / unit index, for h0 = h(delta0).

    The caller guarantees that delta0 is a positive fundamental discriminant
    and f >= 1; a quotient that is not an integer raises ArithmeticError.
    """
    h, rem = divmod(
        h0 * local_unit_group_factor(delta0, f), cfrac.unit_index(delta0, f * f * delta0)
    )
    if rem:
        raise ArithmeticError(
            f"conductor formula gave a non-integer at delta0={delta0}, f={f}"
        )
    return h


def verify_conductor_formula(delta: int) -> bool:
    """Does the conductor-formula prediction match direct enumeration?"""
    if delta <= 0:
        raise ValueError("conductor verification applies to real orders")
    desc = decompose(delta)
    report = class_number_via_conductor(desc.delta0, desc.conductor)
    return report.h_predicted == forms.class_number(delta)


def hua_trend(samples) -> tuple[list[TrendSample], dict]:
    """Exact class numbers and log h / log n ratios for (family, n) samples.

    Reporting only; the asymptotic this tracks has an ineffective remainder,
    so no pass/fail judgement is attached.
    """
    rows = []
    for family, n in sorted(samples, key=lambda s: (s[0] != PLUS, s[1])):
        param = UnitGeneratedParam(family, n)
        if not param.is_real:
            continue
        delta = param.delta
        h = forms.class_number(delta)
        ratio = math.log(h) / math.log(n) if n > 1 else float("nan")
        rows.append(TrendSample(family, n, delta, h, ratio))
    ratios = [r.log_h_over_log_n for r in rows if not math.isnan(r.log_h_over_log_n)]
    summary = {
        "count": len(rows),
        "mean": sum(ratios) / len(ratios) if ratios else float("nan"),
        "min": min(ratios) if ratios else float("nan"),
        "max": max(ratios) if ratios else float("nan"),
    }
    return rows, summary


def bounded_family_statistic(delta0_bound: int, samples) -> tuple[list, dict]:
    """|log h - log n| / loglog(n+20) over samples whose fundamental
    discriminant is at most the bound.

    The comparison constant is effectively computable but not pinned down,
    so the ratios are reported, not asserted.
    """
    if delta0_bound < 5:
        raise ValueError("bound must be at least 5")
    rows = []
    for family, n in sorted(samples, key=lambda s: (s[0] != PLUS, s[1])):
        param = UnitGeneratedParam(family, n)
        if not param.is_real:
            continue
        delta = param.delta
        desc = decompose(delta)
        if desc.delta0 > delta0_bound:
            continue
        h = forms.class_number(delta)
        dev = abs(math.log(h) - math.log(n)) / math.log(math.log(n + 20))
        rows.append(
            {
                "family": family,
                "n": n,
                "delta": delta,
                "delta0": desc.delta0,
                "f": desc.conductor,
                "h": h,
                "deviation": dev,
            }
        )
    devs = [r["deviation"] for r in rows]
    summary = {
        "count": len(rows),
        "mean": sum(devs) / len(devs) if devs else float("nan"),
        "max": max(devs) if devs else float("nan"),
    }
    return rows, summary
