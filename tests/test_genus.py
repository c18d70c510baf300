import math

import pytest

from ugo.cfrac import fundamental_unit
from ugo.forms import ClassGroupStructure, _class_data, narrow_class_number, class_number
from ugo.genus import (
    EVEN,
    MUST_BE_EVEN,
    ODD,
    mu,
    narrow_parity_predicate,
    one_class_per_genus,
    theorem_parity_checks,
    wide_parity_predicate,
)
from ugo.intarith import factor


def valid_discriminants(limit, start=5):
    for delta in range(start, limit + 1):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            yield delta


def test_mu_examples():
    assert mu(5) == 1
    assert mu(32) == 2
    assert mu(60) == 3
    assert mu(-4) == 1
    assert mu(-3) == 1
    with pytest.raises(ValueError):
        mu(0)


def test_genus_group_order_examples():
    assert 1 << (mu(5) - 1) == 1
    assert 1 << (mu(60) - 1) == 4
    assert 1 << (mu(68640) - 1) == 32


def test_is_two_torsion():
    assert ClassGroupStructure(1, (), "wide").is_two_torsion()
    assert ClassGroupStructure(8, (2, 2, 2), "wide").is_two_torsion()
    assert not ClassGroupStructure(4, (4,), "narrow").is_two_torsion()


def test_one_class_per_genus_examples():
    assert one_class_per_genus(60)
    assert not one_class_per_genus(221)
    assert one_class_per_genus(8840)
    assert one_class_per_genus(-4)


def test_genus_order_equals_two_torsion_count():
    for delta in valid_discriminants(4000):
        cd = _class_data(delta)
        assert cd.square_ids().count(cd.principal) == 1 << (mu(delta) - 1), delta


def test_mu_bound():
    for delta in range(-10**4, 10**4):
        if delta != 0 and delta % 4 in (0, 1):
            if delta > 0 and math.isqrt(delta) ** 2 == delta:
                continue
            assert mu(delta) - 1 <= len(factor(abs(delta)))


def test_narrow_parity_examples():
    assert narrow_parity_predicate(293) == ODD
    assert narrow_parity_predicate(8) == ODD
    assert narrow_parity_predicate(40) == EVEN
    assert narrow_parity_predicate(20) == ODD
    assert narrow_parity_predicate(32) == EVEN


def test_wide_parity_examples():
    assert wide_parity_predicate(32) == ODD
    assert wide_parity_predicate(12) == ODD
    assert wide_parity_predicate(40) == EVEN
    assert wide_parity_predicate(117) == ODD
    assert wide_parity_predicate(45) == ODD
    assert wide_parity_predicate(437) == ODD
    assert wide_parity_predicate(24) == ODD


def test_parity_predicates_match_enumeration():
    for delta in valid_discriminants(4000):
        hp = narrow_class_number(delta)
        h = class_number(delta)
        assert (hp % 2 == 1) == (narrow_parity_predicate(delta) == ODD), delta
        assert (h % 2 == 1) == (wide_parity_predicate(delta) == ODD), delta


def test_narrow_odd_implies_negative_norm():
    for delta in valid_discriminants(4000):
        if narrow_parity_predicate(delta) == ODD:
            assert fundamental_unit(delta).norm == -1, delta


def test_theorem_parity_checks():
    assert theorem_parity_checks(6, "minus") == MUST_BE_EVEN
    assert class_number(40) == 2
    assert theorem_parity_checks(6, "plus") is None  # delta = 32 exemption
    assert theorem_parity_checks(10, "plus") == MUST_BE_EVEN
    assert class_number(96) == 2
    assert theorem_parity_checks(2, "minus") is None  # delta = 8 exemption
    assert theorem_parity_checks(4, "plus") is None
    assert theorem_parity_checks(5, "minus") is None
    with pytest.raises(ValueError):
        theorem_parity_checks(6, "chowla")


def test_theorem_parity_never_contradicts():
    for n in range(3, 501):
        if theorem_parity_checks(n, "plus") == MUST_BE_EVEN:
            assert class_number(n * n - 4) % 2 == 0, n
    for n in range(1, 501):
        if theorem_parity_checks(n, "minus") == MUST_BE_EVEN:
            assert class_number(n * n + 4) % 2 == 0, n
