"""The range sweep against the class data, and the faults it must not hide."""

import numpy as np
import pytest

from ugo import search, sweep
from ugo.forms import _ClassData
from ugo.intarith import is_discriminant
from ugo.orders import is_fundamental_discriminant


def _class_data_numbers(deltas):
    # |Cl+[2]| counts the classes whose square is the principal class.
    return [
        (cd.h_plus, cd.h, cd.square_ids().count(cd.principal))
        for cd in map(_ClassData, deltas)
    ]


def _swept(deltas):
    return list(zip(*(x.tolist() for x in sweep.class_numbers(deltas))))


def test_sweep_equals_class_data_to_2e4():
    deltas = [d for d in range(5, 20001) if is_discriminant(d)]
    assert _swept(deltas) == _class_data_numbers(deltas)


def test_sweep_equals_class_data_near_1e6():
    deltas = [d for d in range(10**6 - 1500, 10**6 + 1) if is_discriminant(d)]
    assert _swept(deltas) == _class_data_numbers(deltas)


def test_sweep_equals_class_data_at_the_sweep_bound():
    # The int32 arithmetic per form at the largest bound of the swept suites.
    top = sweep.MAX_DELTA
    deltas = [d for d in range(top - 400, top + 1) if is_discriminant(d)]
    assert _swept(deltas) == _class_data_numbers(deltas)


def test_sweep_equals_class_data_at_conductors_divisible_by_6_or_9():
    # At delta = f**2 * delta0 with 6 | f or 9 | f many primitive forms have
    # gcd(a, rho) > 1 for their root rho mod 2a, beside imprimitive forms
    # with the same gcd; only gcd(a, rho, k) tells them apart.
    deltas = sorted(
        f * f * delta0
        for f in range(6, 201)
        if f % 6 == 0 or f % 9 == 0
        for delta0 in range(5, 200000 // (f * f) + 1)
        if is_fundamental_discriminant(delta0)
    )
    assert _swept(deltas) == _class_data_numbers(deltas)


def test_sweep_of_a_subset_and_of_small_windows(monkeypatch):
    # Non-consecutive discriminants, and windows of a few discriminants each.
    deltas = [d for d in range(5, 6001) if is_discriminant(d) and d % 3 != 1]
    expected = _class_data_numbers(deltas)
    assert _swept(deltas) == expected
    monkeypatch.setattr(sweep, "_WINDOW_PAIRS", 100)
    assert _swept(deltas) == expected
    assert _swept(deltas[-1:]) == expected[-1:]


def test_sweep_rejects_bad_input():
    assert [len(x) for x in sweep.class_numbers([])] == [0, 0, 0]
    for deltas in ([8, 5], [5, 5], [4, 5], [5, 9], [5, 7], [sweep.MAX_DELTA + 1]):
        with pytest.raises(ValueError):
            sweep.class_numbers(deltas)


def _forms_without(delta, oids, drop=None):
    # The sweep's forms of delta without the cycles oids of its class data
    # (and without one more form, drop), as the window's form arrays.
    cd = _ClassData(delta)
    gone = {(f.a, f.b) for oid in oids for f in cd.cycle_of(oid) if f.a > 0}
    if drop:
        gone.add(drop)
    j, a, b = sweep._reduced_forms(np.array([delta]))
    keep = np.array([(x, y) not in gone for x, y in zip(a.tolist(), b.tolist())])
    return np.array([delta]), j[keep], a[keep], b[keep]


def _delta_with(test):
    deltas = filter(is_discriminant, range(5, 5000))
    return next(cd for cd in map(_ClassData, deltas) if test(cd))


def _positive_forms(cd, oid):
    return [f for f in cd.cycle_of(oid) if f.a > 0]


def test_sweep_raises_on_a_form_missing():
    # One form short of a cycle off the principal and tau cycles: the rho**2
    # image of its predecessor is not found.
    def other_long_cycles(cd):
        return [
            oid for oid in range(cd.h_plus)
            if oid not in (cd.principal, cd.tau) and len(_positive_forms(cd, oid)) >= 2
        ]

    cd = _delta_with(other_long_cycles)
    form = _positive_forms(cd, other_long_cycles(cd)[0])[1]
    with pytest.raises(ArithmeticError, match="rho"):
        sweep._count(*_forms_without(cd.delta, [], drop=(form.a, form.b)))


def test_sweep_raises_on_a_principal_or_tau_cycle_missing():
    cd = _delta_with(lambda cd: cd.h < cd.h_plus)
    with pytest.raises(ArithmeticError, match="principal"):
        sweep._count(*_forms_without(cd.delta, [cd.principal]))
    with pytest.raises(ArithmeticError, match="tau"):
        sweep._count(*_forms_without(cd.delta, [cd.tau]))


def test_sweep_raises_on_odd_h_plus_with_tau_off_the_principal_cycle():
    # h+ = 4 with tau off the principal cycle; without a third cycle the
    # count is odd.
    cd = _delta_with(lambda cd: cd.h_plus == 4 and cd.h == 2)
    other = next(oid for oid in range(4) if oid not in (cd.principal, cd.tau))
    with pytest.raises(ArithmeticError, match="odd"):
        sweep._count(*_forms_without(cd.delta, [other]))


def test_parity_chunk_of_one_delta():
    for delta in (5, 8, 12, 13, 1000, 1001, 19997):
        assert search._parity_chunk(range(delta, delta + 1)) == (1, [])
    assert search._parity_chunk(range(9, 10)) == (0, [])


def test_root_table_built_once_per_call(monkeypatch):
    # The windows climb from the smallest delta, so a table grown window by
    # window would be rebuilt each time; it is built for the largest delta
    # before the first window.  Every table returned is kept, so distinct
    # builds have distinct ids.
    monkeypatch.setattr(sweep, "_table", None)
    monkeypatch.setattr(sweep, "_table_a", 0)
    tables = []
    real = sweep._root_table

    def spy(amax):
        tables.append(real(amax))
        return tables[-1]

    monkeypatch.setattr(sweep, "_root_table", spy)
    sweep.class_numbers([d for d in range(5, 20001) if is_discriminant(d)])
    assert len(tables) >= 4  # the call's own build and at least 3 windows
    assert len({id(t) for t in tables}) == 1
