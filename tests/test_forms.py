import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugo.cfrac import _rho_step, fundamental_unit
from ugo.forms import (
    BQF,
    ClassGroupStructure,
    _class_data,
    _ClassData,
    _compose_raw,
    _reduce_indefinite,
    _square_raw,
    class_number,
    class_witness,
    compose,
    enumerate_reduced,
    is_reduced,
    narrow_class_group,
    narrow_class_number,
    narrow_classes,
    principal_form,
    reduce,
    rho,
    wide_class_group,
)
from ugo.intarith import is_discriminant, primes_up_to, sqrt_mod_prime
from ugo.orders import _mu, decompose


def brute_reduced(delta):
    """Oracle: enumerate primitive reduced forms by scanning coefficients."""
    out = set()
    if delta > 0:
        w = math.isqrt(delta)
        for b in range(1, w + 1):
            if (delta - b * b) % 4:
                continue
            n = (delta - b * b) // 4
            if n <= 0:
                continue
            for d in range(1, n + 1):
                if n % d:
                    continue
                e = n // d
                if abs(d - e) < b and math.gcd(d, b, e) == 1:
                    out.add(BQF(d, b, -e))
                    out.add(BQF(-d, b, e))
    else:
        for a in range(1, math.isqrt(-delta // 3) + 1):
            for b in range(-a, a + 1):
                num = b * b - delta
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if b < 0 and (a == c or -b == a):
                    continue
                if b == -a:
                    continue
                if math.gcd(a, b, c) == 1:
                    out.add(BQF(a, b, c))
    return out


def valid_discriminants(limit, start=5):
    for delta in range(start, limit + 1):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            yield delta


def test_principal_form():
    assert principal_form(5) == BQF(1, 1, -1)
    assert principal_form(8) == BQF(1, 0, -2)
    assert principal_form(-4) == BQF(1, 0, 1)


def test_is_reduced_examples():
    assert is_reduced(BQF(1, 1, -1), 5)
    assert is_reduced(BQF(1, 2, -1), 8)
    assert is_reduced(BQF(1, 0, 1), -4)
    assert not is_reduced(BQF(1, 1, -11), 45)
    assert not is_reduced(BQF(1, 0, -2), 8)  # b must be positive
    with pytest.raises(ValueError):
        is_reduced(BQF(1, 1, -1), 8)


def test_rho_cycle_delta5():
    f = BQF(1, 1, -1)
    g = rho(f, 5)
    assert g == BQF(-1, 1, 1)
    assert rho(g, 5) == f


def test_rho_contract():
    with pytest.raises(ValueError):
        rho(BQF(1, 1, -11), 45)
    with pytest.raises(ValueError):
        rho(BQF(1, 0, 1), -4)


def test_rho_preserves_discriminant_and_primitivity():
    rng = random.Random(2)
    deltas = [d for d in valid_discriminants(10**4)]
    for _ in range(2000):
        delta = rng.choice(deltas)
        forms = enumerate_reduced(delta)
        f = rng.choice(forms)
        g = rho(f, delta)
        assert g.discriminant() == delta
        assert g.is_primitive()
        assert is_reduced(g, delta)


def test_rho_is_bijection_on_reduced():
    for delta in valid_discriminants(10**4):
        forms = enumerate_reduced(delta)
        images = {rho(f, delta) for f in forms}
        assert images == set(forms)


def test_reduce_basics():
    for delta in valid_discriminants(5000):
        f = reduce(principal_form(delta), delta)
        assert is_reduced(f, delta)
    assert reduce(BQF(1, 0, 1), -4) == BQF(1, 0, 1)
    assert reduce(BQF(2, 2, 3), -20) == BQF(2, 2, 3)
    with pytest.raises(ValueError):
        reduce(BQF(2, 4, 2), 0)
    with pytest.raises(ValueError):
        reduce(BQF(3, 3, -3), 45)  # imprimitive


def test_reduce_lands_in_a_cycle_of_its_class():
    # (5, 11, 5) has discriminant 21; its reduced image must lie in one of
    # the two cycles, and composition squares locate which.
    f = BQF(5, 11, 5)
    assert f.discriminant() == 21
    r = reduce(f, 21)
    assert is_reduced(r, 21)
    cycles = narrow_classes(21)
    assert sum(r in cyc for cyc in cycles) == 1


def test_enumerate_reduced_examples():
    assert set(enumerate_reduced(5)) == {BQF(1, 1, -1), BQF(-1, 1, 1)}
    assert enumerate_reduced(-4) == [BQF(1, 0, 1)]
    forms12 = enumerate_reduced(12)
    assert len(forms12) % 2 == 0 and narrow_class_number(12) == 2


def test_enumerate_reduced_against_brute_force():
    negative = [-d for d in range(3, 6001) if -d % 4 in (0, 1)]
    for delta in [*valid_discriminants(2000), *negative]:
        assert set(enumerate_reduced(delta)) == brute_reduced(delta), delta


def test_positive_forms_against_brute_force():
    # A reduced form has |a| < sqrt(delta), so a <= w bounds the oracle's scan.
    for delta in valid_discriminants(3999):
        w = math.isqrt(delta)
        want = set()
        for b in range(1, w + 1):
            for a in range(1, w + 1):
                if (delta - b * b) % (4 * a) == 0:
                    f = BQF(a, b, (b * b - delta) // (4 * a))
                    if is_reduced(f, delta) and f.is_primitive():
                        want.add(f)
        # Enumerate without the cycle walk, which need not end on wrong forms.
        A, B, C = _ClassData._positive_forms(SimpleNamespace(delta=delta, w=w, desc=decompose(delta)))
        got = set(map(BQF, A, B, C))
        assert len(got) == len(A) and got == want, delta


@pytest.mark.parametrize(
    "delta,h_plus,n_forms",
    [
        (33553792, 4, 2968),  # 2**7 * 262139: 2-adic lifting
        (16110900, 96, 1954),  # 2**2 * 3**6 * 5**2 * 13 * 17: ramified lifts
        (215364996, 168, 5930),  # 2**2 * 3**2 * 7**2 * 11**2 * 1009
        (99460725, 896, 3532),
        (64016005, 576, 4390),  # 8001**2 + 4
        # delta < 0: one form per class, pinned from a coefficient scan.
        (-8108100, 960, 960),  # 2**2 * 3**4 * 5**2 * 7 * 11 * 13
        (-33553792, 1816, 1816),  # 2**7 * 262139: 2-adic lifting
        (-16110900, 1152, 1152),  # ramified lifts, as at +16110900
        (-100000003, 1702, 1702),
        (-99460727, 6736, 6736),
    ],
)
def test_positive_forms_pinned(delta, h_plus, n_forms):
    cd = _ClassData(delta)
    forms = list(zip(cd.forms_a, cd.forms_b, cd.forms_c))
    assert cd.h_plus == h_plus and len(forms) == len(set(forms)) == n_forms
    for f in forms:
        assert is_reduced(BQF(*f), delta) and math.gcd(*f) == 1


def test_every_reduced_form_in_exactly_one_cycle():
    for delta in valid_discriminants(3000):
        forms = enumerate_reduced(delta)
        parts = narrow_classes(delta)
        seen = {}
        for idx, part in enumerate(parts):
            assert len(set(part)) == len(part)
            for f in part:
                assert f not in seen
                seen[f] = idx
        assert set(seen) == set(forms)
        for part in parts:
            for f in part:
                assert rho(f, delta) in part


def test_narrow_classes_order():
    # The listing `inspect` prints: each part from its least member in rho
    # order, parts ascending, and compose returns a part's first member.
    for delta in [*valid_discriminants(3000), -3, -4, -23, -47, -84]:
        parts = narrow_classes(delta)
        firsts = [part[0] for part in parts]
        assert firsts == sorted(set(firsts)), delta
        one = principal_form(delta)
        for part in parts:
            assert part[0] == min(part), delta
            if delta > 0:
                assert [rho(f, delta) for f in part] == part[1:] + part[:1], delta
            for f in part:
                assert compose(f, one, delta) == part[0], (delta, f)


def test_narrow_classes_is_the_sorted_list_of_cycles():
    # The streamed order (one key per cycle) against sorting the listed
    # cycles themselves.
    deltas = [d for a in range(5, 2001) for d in (a, -a) if is_discriminant(d)]
    for delta in [*deltas, 68, 725, 50004529, -100000003, 284866885]:
        cd = _class_data(delta)
        assert narrow_classes(delta) == sorted(map(cd.cycle_of, range(cd.h_plus))), delta


def test_class_witness_is_exact():
    # A witness is a proof: for each (square, wide) variant it must imply,
    # in order, h > 1, h+ > 1, a wide group and a narrow group that are not
    # 2-torsion.  The firing counts pin how often the certificate is found.
    variants = ((False, True), (False, False), (True, True), (True, False))
    fired = [0, 0, 0, 0]
    for delta in valid_discriminants(7999):
        cd = _ClassData(delta)
        truth = (
            cd.h > 1,
            cd.h_plus > 1,
            not cd.is_two_torsion_wide(),
            not cd.is_two_torsion_narrow(),
        )
        for k, (square, wide) in enumerate(variants):
            if class_witness(delta, square=square, wide=wide):
                assert truth[k], (delta, square, wide)
                fired[k] += 1
    assert fired == [2363, 3369, 797, 915]


def test_narrow_class_numbers():
    assert narrow_class_number(5) == 1
    assert narrow_class_number(12) == 2
    assert narrow_class_number(60) == 4
    assert narrow_class_number(-4) == 1
    assert narrow_class_number(-3) == 1


def test_compose_identity_law():
    rng = random.Random(4)
    for delta in (21, 60, 221):
        e = principal_form(delta)
        forms = enumerate_reduced(delta)
        cycles = narrow_classes(delta)
        for _ in range(100):
            f = rng.choice(forms)
            assert compose(e, f, delta) == compose(f, e, delta)
            # composing with the identity must land in f's own cycle
            cls_f = compose(e, f, delta)
            part = next(c for c in cycles if f in c)
            assert cls_f in part


def test_compose_two_torsion_of_60():
    cycles = narrow_classes(60)
    principal_class = compose(principal_form(60), principal_form(60), 60)
    for part in cycles:
        f = part[0]
        assert compose(f, f, 60) == principal_class


def test_compose_order_four_of_221():
    # Cl+(221) = Z/4: some class must square to a non-principal class.
    principal_class = compose(principal_form(221), principal_form(221), 221)
    squares = set()
    for part in narrow_classes(221):
        f = part[0]
        squares.add(compose(f, f, 221))
    assert len(squares) == 2 and principal_class in squares


def test_compose_inverse_and_associativity():
    rng = random.Random(9)
    for delta in (40, 85, 136, 145, 221, 312, 725, -23, -47, -71):
        forms = enumerate_reduced(delta)
        e_class = compose(principal_form(delta), principal_form(delta), delta)
        for _ in range(40):
            f = rng.choice(forms)
            g = rng.choice(forms)
            h = rng.choice(forms)
            # inverse: (a, -b, c) negates the class
            if delta > 0:
                inv = BQF(f.a, -f.b, f.c)
            else:
                inv = BQF(f.a, -f.b, f.c)
            assert compose(f, inv, delta) == e_class
            # commutativity and associativity on classes
            assert compose(f, g, delta) == compose(g, f, delta)
            left = compose(compose(f, g, delta), h, delta)
            right = compose(f, compose(g, h, delta), delta)
            assert left == right


def test_negative_definite_forms_are_rejected():
    # Their classes lie outside the group of a > 0 forms; the check is the
    # one reduce makes, not a failed lookup.
    neg = BQF(-1, 0, -1)
    with pytest.raises(ValueError, match="negative definite"):
        compose(neg, BQF(1, 0, 1), -4)
    with pytest.raises(ValueError, match="negative definite"):
        compose(BQF(2, 1, 3), BQF(-2, 1, -3), -23)
    with pytest.raises(ValueError, match="negative definite"):
        _ClassData(-23).orbit_of(BQF(-2, -1, -3))
    with pytest.raises(ValueError, match="negative definite"):
        reduce(neg, -4)


def test_narrow_class_group_structures():
    assert narrow_class_group(221).divisors == (4,)
    assert narrow_class_group(725).divisors == (4,)
    assert narrow_class_group(68640).divisors == (2, 2, 2, 2, 2)
    assert narrow_class_group(5).divisors == ()
    assert narrow_class_group(-4).divisors == ()


@pytest.mark.parametrize(
    "delta, narrow, wide",
    [
        (22356, (3, 6), (3, 3)),
        (28212, (3, 6), (3, 3)),
        (4913**2 + 4, (3, 39), None),
        (4964**2 + 4, (6, 30), None),
        (-972, (3, 3), None),
        (-1356, (3, 6), None),
    ],
)
def test_non_cyclic_structures_with_odd_parts(delta, narrow, wide):
    assert narrow_class_group(delta).divisors == narrow
    if wide is not None:
        assert wide_class_group(delta).divisors == wide


def _orders_by_composition(cd, wide):
    # Oracle: the order of each class by repeated composition, counted.
    trivial = {cd.principal, cd.tau} if wide else {cd.principal}
    reps = {min(i, cd.compose_ids(i, cd.tau)) if wide else i for i in range(cd.h_plus)}
    counts = Counter()
    for g in reps:
        x, k = g, 1
        while x not in trivial:
            x, k = cd.compose_ids(x, g), k + 1
        counts[k] += 1
    return counts


def _orders_of_chain(divisors):
    counts = Counter()
    for elt in itertools.product(*(range(d) for d in divisors)):
        counts[math.lcm(*(d // math.gcd(d, e) for d, e in zip(divisors, elt)))] += 1
    return counts


def test_structure_matches_element_orders():
    deltas = list(valid_discriminants(3000)) + [
        d for d in range(-3000, -2) if d % 4 in (0, 1)
    ]
    for delta in deltas:
        cd = _class_data(delta)
        # Both chains are checked against Gauss's 2-rank, mu - 1 (mu - 2 for
        # a wide group whose tau is no square).
        narrow, wide = cd.checked_chains(_mu(delta, cd.desc.pairs))
        assert _orders_of_chain(narrow) == _orders_by_composition(cd, False), delta
        assert _orders_of_chain(wide) == _orders_by_composition(cd, True), delta


@pytest.mark.parametrize("delta, wide", [(-972, False), (68640, False), (22356, True)])
def test_corrupted_composition_raises(delta, wide):
    cd = _ClassData(delta)  # a private instance, outside the shared cache
    x = next(
        i for i in range(cd.h_plus)
        if i not in (cd.principal, cd.tau) and i <= cd.compose_ids(i, cd.tau)
    )
    cd._compose_memo[(x, x)] = x  # claim x * x = x for a nontrivial class x
    with pytest.raises(ArithmeticError):
        cd.wide_divisors() if wide else cd.narrow_divisors()


def test_square_by_duplication_matches_composition():
    # Every reduced form with a > 0 at 5 <= |delta| <= 5000, both signs; the
    # non-fundamental delta give forms with gcd(a, b) > 1.
    checked = shared = 0
    for d in range(5, 5001):
        for delta in (d, -d):
            if delta % 4 not in (0, 1) or delta > 0 and math.isqrt(delta) ** 2 == delta:
                continue
            cd = _ClassData(delta)
            for f in zip(cd.forms_a, cd.forms_b, cd.forms_c):
                square = cd.orbit_of(BQF(*_square_raw(*f)))
                assert square == cd.orbit_of(BQF(*_compose_raw(f, f))), (delta, f)
                checked += 1
                shared += math.gcd(f[0], f[1]) > 1
    assert checked > 100000 and shared > 10000


def test_tau_fold_by_negation_matches_composition():
    seen = 0
    for delta in valid_discriminants(20000):
        cd = _ClassData(delta)
        if cd.h == cd.h_plus:
            continue
        seen += 1
        tau = cd.rep(cd.tau)
        for i in range(cd.h_plus):
            by_composition = cd.orbit_of(BQF(*_compose_raw(cd.rep(i), tau)))
            assert cd.times_tau(i) == by_composition, (delta, i)
    assert seen > 2000


@pytest.mark.parametrize("delta", [60, 221, 22356, 28212, 68640])
def test_structure_composition_counts(delta):
    # The wide quotient costs no composition with tau; squares cost one
    # memo entry per class.
    cd = _ClassData(delta)
    assert cd.h != cd.h_plus
    cd.wide_divisors()
    assert not [key for key in cd._compose_memo if cd.tau in key and key[0] != key[1]]
    fresh = _ClassData(delta)
    fresh.square_ids()
    assert len(fresh._compose_memo) == fresh.h_plus


def test_wide_class_group_structures():
    g32 = wide_class_group(32)
    assert g32.order == 1 and g32.divisors == ()
    assert narrow_class_group(32).divisors == (2,)
    g40 = wide_class_group(40)
    assert g40.divisors == (2,) == narrow_class_group(40).divisors
    assert wide_class_group(437).order == 1
    assert wide_class_group(-3).order == 1


def test_class_numbers_from_tables():
    assert class_number(437) == 1
    assert class_number(1517) == 2
    assert class_number(8840) == 8
    assert wide_class_group(8840).divisors == (2, 2, 2)
    assert class_number(-3) == 1
    assert class_number(-4) == 1


def test_narrow_wide_ratio_and_unit_norm():
    for delta in valid_discriminants(4000):
        hp = narrow_class_number(delta)
        h = class_number(delta)
        assert hp in (h, 2 * h)
        norm = fundamental_unit(delta).norm
        assert (hp == h) == (norm == -1), delta


def test_family_law_small():
    for n in range(4, 201):
        assert narrow_class_number(n * n - 4) == 2 * class_number(n * n - 4)
    for n in range(1, 201):
        assert narrow_class_number(n * n + 4) == class_number(n * n + 4)


def test_structure_consistency_random():
    rng = random.Random(6)
    for _ in range(60):
        delta = rng.choice(list(valid_discriminants(20000, start=10000)))
        ns = narrow_class_group(delta)
        ws = wide_class_group(delta)
        assert ns.order == narrow_class_number(delta)
        assert ws.order == class_number(delta)
        prod = 1
        for d in ns.divisors:
            prod *= d
        assert prod == ns.order


def test_class_group_structure_validation():
    with pytest.raises(ValueError):
        ClassGroupStructure(4, (3,), "narrow")
    with pytest.raises(ValueError):
        ClassGroupStructure(6, (3, 2), "narrow")
    s = ClassGroupStructure(8, (2, 4), "narrow")
    assert not s.is_two_torsion()
    assert str(s) == "2x4"
    assert str(ClassGroupStructure(1, (), "wide")) == "1"


# Form arithmetic at the top of the input range, 10**17 <= delta < 2**62.
BIG_DISCRIMINANTS = st.integers(10**17, (1 << 62) - 1).map(lambda x: x - (x & 2)).filter(
    is_discriminant
)
ODD_PRIMES = primes_up_to(1000)[1:]
BIG = settings(max_examples=150, deadline=None, derandomize=True)


def split_prime_forms(delta, start):
    """The prime forms (p, b, (b*b - delta)/4p) of the odd primes p from
    ODD_PRIMES[start] on with (delta/p) = 1."""
    out = []
    for p in ODD_PRIMES[start:]:
        b = sqrt_mod_prime(delta % p, p)  # 0 when p | delta, None when inert
        if b:
            b = p - b if (b ^ delta) & 1 else b
            out.append((p, b, (b * b - delta) // (4 * p)))
    return out


@BIG
@given(BIG_DISCRIMINANTS, st.integers(0, 100))
def test_square_raw_is_compose_raw_at_62_bits(delta, start):
    for f in split_prime_forms(delta, start)[:3]:
        assert _square_raw(*f) == _compose_raw(f, f)


@BIG
@given(BIG_DISCRIMINANTS, st.integers(0, 100))
def test_compose_raw_keeps_delta_and_primitivity_at_62_bits(delta, start):
    f, g, h = split_prime_forms(delta, start)[:3]
    fg = _compose_raw(f, g)
    for form in (fg, _compose_raw(fg, h), _compose_raw(fg, fg)):
        assert BQF(*form).discriminant() == delta
        assert BQF(*form).is_primitive()


@BIG
@given(BIG_DISCRIMINANTS, st.integers(0, 100))
def test_reduce_indefinite_ends_reduced_at_62_bits(delta, start):
    w = math.isqrt(delta)
    f, g = split_prime_forms(delta, start)[:2]
    for form in (f, _compose_raw(f, g), _square_raw(*_compose_raw(f, g))):
        reduced = BQF(*_reduce_indefinite(delta, w, *form))
        assert is_reduced(reduced, delta)


@BIG
@given(BIG_DISCRIMINANTS, st.integers(0, 100))
def test_rho_step_is_invertible_on_reduced_forms_at_62_bits(delta, start):
    # rho of the reversal (c', b', c) of rho(a, b, c) = (c, b', c') is the
    # reversal (c, b, a) of (a, b, c).
    w = math.isqrt(delta)
    f, g = split_prime_forms(delta, start)[:2]
    a, b, c = _reduce_indefinite(delta, w, *_compose_raw(f, g))
    for _ in range(8):
        _, nb, nc = _rho_step(delta, w, b, c)
        assert is_reduced(BQF(c, nb, nc), delta)
        assert is_reduced(BQF(nc, nb, c), delta)
        assert _rho_step(delta, w, nb, c)[1:] == (b, a)
        a, b, c = c, nb, nc
