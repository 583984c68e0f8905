import pytest
from hypothesis import given, settings, strategies as st

from qnsym import compositions as comps
from qnsym import core
from qnsym.core import (
    Element,
    antipode,
    coproduct,
    counit,
    element_from_json,
    exact_inverse,
    involution,
    multiply,
    one,
    pair,
    pair_tensor,
    perp,
    rperp,
    term,
    transition_matrix,
    zero,
)


def comp_strategy(max_size=6):
    return st.lists(st.integers(1, 4), max_size=4).map(tuple).filter(
        lambda a: sum(a) <= max_size
    )


def element_strategy(algebra, basis_pool):
    def build(pairs):
        e = zero(algebra)
        for basis, comp, coeff in pairs:
            e = e + term(basis, comp, coeff)
        return e

    return st.lists(
        st.tuples(st.sampled_from(basis_pool), comp_strategy(5), st.integers(-3, 3)),
        max_size=3,
    ).map(build)


# --- conversions ---------------------------------------------------------------

def test_ribbon_to_complete():
    assert term("R", (1, 1)).convert("H") == term("H", (1, 1)) - term("H", (2,))
    assert term("R", (2,)).convert("H") == term("H", (2,))
    assert term("R", (2, 1)).convert("H") == term("H", (2, 1)) - term("H", (3,))
    assert term("H", (1, 1)).convert("R") == term("R", (1, 1)) + term("R", (2,))


def test_elementary_to_complete():
    assert term("E", (2,)).convert("H") == term("H", (1, 1)) - term("H", (2,))
    assert term("H", (2,)).convert("E") == term("E", (1, 1)) - term("E", (2,))
    # E is multiplicative, so E[2,2] expands as the product of two E[2]
    e22 = term("E", (2, 2)).convert("H")
    prod = multiply(term("E", (2,)).convert("H"), term("E", (2,)).convert("H"))
    assert e22 == prod


def test_fundamental_to_monomial():
    assert term("F", (2, 1)).convert("M") == term("M", (2, 1)) + term("M", (1, 1, 1))
    assert term("M", (2, 1)).convert("F") == term("F", (2, 1)) - term("F", (1, 1, 1))


def test_conversion_roundtrips_all_bases():
    for n in range(0, 5):
        for basis in ("E", "R", "F"):
            algebra = core.algebra_of(basis)
            canonical = core.CANONICAL[algebra]
            for a in comps.compositions(n):
                x = term(basis, a)
                assert x.convert(canonical).convert(basis).terms == x.terms


def test_unknown_basis_is_an_error():
    with pytest.raises(KeyError):
        term("H", (1,)).convert("Q")
    with pytest.raises(ValueError):
        term("H", (1,)).convert("M")  # wrong algebra


# --- arithmetic ----------------------------------------------------------------

def test_h_product_concatenates():
    assert multiply(term("H", (2,)), term("H", (1, 3))) == term("H", (2, 1, 3))


def test_monomial_product_is_quasi_shuffle():
    m1 = term("M", (1,))
    assert multiply(m1, m1) == 2 * term("M", (1, 1)) + term("M", (2,))
    lhs = multiply(term("M", (2,)), term("M", (1, 1)))
    expected = (
        term("M", (2, 1, 1)) + term("M", (1, 2, 1)) + term("M", (1, 1, 2))
        + term("M", (3, 1)) + term("M", (1, 3))
    )
    assert lhs == expected


def near_concat(alpha, beta):
    """Concatenation with the boundary parts merged; both factors nonempty."""
    return alpha[:-1] + (alpha[-1] + beta[0],) + beta[1:]


def test_ribbon_product_rule():
    # R_a R_b = R_{a.b} + R_{a(.)b} with the boundary parts merged
    for a in ((1,), (2, 1), (1, 2)):
        for b in ((1,), (3,), (1, 1)):
            lhs = multiply(term("R", a), term("R", b))
            rhs = term("R", a + b) + term("R", near_concat(a, b))
            assert lhs == rhs
    assert multiply(one("NSym"), term("R", (2, 1))) == term("R", (2, 1))


def test_product_lands_in_left_factor_basis():
    out = multiply(term("F", (1,)), term("F", (1,)))
    assert out.support_basis() == "F"
    assert out == term("F", (1, 1)) + term("F", (2,))


def test_unit_and_zero():
    x = term("H", (2, 1))
    assert multiply(one("NSym"), x) == x
    assert x + zero("NSym") == x
    assert (x - x).is_zero()


def test_integer_coefficients_enforced():
    with pytest.raises(TypeError):
        Element("NSym", {("H", (1,)): 0.5})


# --- coproducts, counit, pairing ------------------------------------------------

def test_coproduct_examples():
    dh2 = coproduct(term("H", (2,)))
    expected = (
        core.tensor_term("H", (), "H", (2,))
        + core.tensor_term("H", (1,), "H", (1,))
        + core.tensor_term("H", (2,), "H", ())
    )
    assert dh2 == expected
    dm21 = coproduct(term("M", (2, 1)))
    assert dm21 == (
        core.tensor_term("M", (), "M", (2, 1))
        + core.tensor_term("M", (2,), "M", (1,))
        + core.tensor_term("M", (2, 1), "M", ())
    )


def test_coproduct_is_multiplicative():
    for x, y in (
        (term("H", (2,)), term("H", (1, 1))),
        (term("M", (2,)), term("M", (1,))),
        (term("R", (1, 2)), term("R", (1,))),
    ):
        assert coproduct(multiply(x, y)) == coproduct(x) * coproduct(y)


def test_counit():
    assert counit(one("QSym")) == 1
    assert counit(term("M", (2, 1))) == 0
    assert counit(3 * one("NSym") - term("H", (1,))) == 3
    # (counit (x) id) . coproduct == id
    x = term("H", (3, 1))
    acc = zero("NSym")
    for ((bl, cl), (br, cr)), c in coproduct(x).terms.items():
        acc = acc + c * counit(term(bl, cl)) * term(br, cr)
    assert acc == x


def test_pairing_dual_bases():
    for n in range(0, 5):
        for a in comps.compositions(n):
            for b in comps.compositions(n):
                delta = 1 if a == b else 0
                assert pair(term("H", a), term("M", b)) == delta
                assert pair(term("R", a), term("F", b)) == delta


def test_pairing_degree_mismatch_is_zero():
    assert pair(term("H", (2,)), term("M", (1,))) == 0


def test_pair_rejects_wrong_algebras():
    with pytest.raises(ValueError):
        pair(term("M", (1,)), term("M", (1,)))


# --- perp ------------------------------------------------------------------------

def test_perp_examples():
    assert perp(term("H", (1,)), term("M", (1, 2))) == term("M", (2,))
    assert perp(term("H", (2,)), term("M", (1, 2))).is_zero()
    assert rperp(term("H", (1,)), term("M", (2, 1))) == term("M", (2,))
    assert rperp(term("H", (2,)), term("M", (2, 1))).is_zero()
    assert perp(one("NSym"), term("M", (3,))) == term("M", (3,))


@settings(max_examples=40, deadline=None)
@given(
    element_strategy("NSym", ("H", "R")),
    element_strategy("NSym", ("H", "E")),
    element_strategy("QSym", ("M", "F")),
)
def test_perp_is_adjoint_to_multiplication(h, g, f):
    assert pair(multiply(h, g, basis="H"), f) == pair(g, perp(h, f))
    assert pair(multiply(g, h, basis="H"), f) == pair(g, rperp(h, f))


@settings(max_examples=40, deadline=None)
@given(
    element_strategy("NSym", ("H",)),
    element_strategy("NSym", ("H",)),
    element_strategy("QSym", ("M",)),
)
def test_pairing_is_a_hopf_pairing(x, y, f):
    assert pair(multiply(x, y), f) == pair_tensor(
        core.TensorElement(
            "NSym",
            {
                (kx, ky): cx * cy
                for kx, cx in x.terms.items()
                for ky, cy in y.terms.items()
            },
        ),
        coproduct(f),
    )


# --- involutions and antipode -----------------------------------------------------

def test_involution_frozen_values():
    assert involution("psi", term("F", (3, 2))) == term("F", (1, 1, 2, 1))
    assert involution("psi", term("H", (2,))) == term("E", (2,))
    assert involution("psi", term("H", (2, 1))) == term("E", (2, 1))
    assert involution("rho", term("H", (2, 1))) == term("H", (1, 2))
    assert involution("omega", term("H", (2, 1))) == term("E", (1, 2))
    assert involution("rho", term("R", (2, 1))) == term("R", (1, 2))
    assert involution("rho", term("M", (1, 2))) == term("M", (2, 1))
    # omega is not an index map on M; value checked against the image in Sym
    assert involution("omega", term("M", (1, 2))) == -term("M", (2, 1)) - term("M", (3,))


def test_involutions_square_to_identity():
    for name in ("psi", "rho", "omega"):
        for basis in ("H", "R", "M", "F"):
            for a in comps.compositions(4):
                x = term(basis, a)
                assert involution(name, involution(name, x)) == x


def test_omega_factors():
    for basis in ("H", "M"):
        for a in comps.compositions(4):
            x = term(basis, a)
            assert involution("omega", x) == involution("psi", involution("rho", x))
            assert involution("omega", x) == involution("rho", involution("psi", x))


def test_involution_multiplicativity():
    x, y = term("H", (2, 1)), term("H", (1, 3))
    # psi respects products; rho and omega reverse them on NSym
    assert involution("psi", multiply(x, y)) == multiply(
        involution("psi", x), involution("psi", y)
    )
    for name in ("rho", "omega"):
        assert involution(name, multiply(x, y)) == multiply(
            involution(name, y), involution(name, x)
        )
    # on QSym all three respect products
    f, g = term("M", (2,)), term("M", (1, 1))
    for name in ("psi", "rho", "omega"):
        assert involution(name, multiply(f, g)) == multiply(
            involution(name, f), involution(name, g)
        )


def test_involutions_preserve_pairing():
    for name in ("psi", "rho", "omega"):
        for a in comps.compositions(3):
            for b in comps.compositions(3):
                assert pair(term("H", a), term("M", b)) == pair(
                    involution(name, term("H", a)), involution(name, term("M", b))
                )


def test_antipode_frozen_values():
    assert antipode(term("R", (2,))) == term("R", (1, 1))
    assert antipode(term("R", (1, 1))) == term("R", (2,))
    assert antipode(term("H", (2,))) == term("H", (1, 1)) - term("H", (2,))
    assert antipode(term("F", (2, 1))) == -term("F", (2, 1))
    assert antipode(one("NSym")) == one("NSym")


def test_antipode_axiom():
    # multiply the antipode of the left legs with the right legs: counit * unit
    for algebra, basis in (("NSym", "H"), ("NSym", "R"), ("QSym", "M"), ("QSym", "F")):
        for n in range(0, 5):
            for a in comps.compositions(n):
                x = term(basis, a)
                acc = zero(algebra)
                for ((bl, cl), (br, cr)), c in coproduct(x).terms.items():
                    acc = acc + c * multiply(
                        antipode(term(bl, cl)), term(br, cr), basis=core.CANONICAL[algebra]
                    )
                assert acc == counit(x) * one(algebra)


def test_antipode_is_an_antihomomorphism():
    x, y = term("H", (2,)), term("H", (1, 1))
    assert antipode(multiply(x, y)) == multiply(antipode(y), antipode(x))


# --- matrices, json, formatting -----------------------------------------------------

def test_exact_inverse():
    assert exact_inverse(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    with pytest.raises(ArithmeticError):
        exact_inverse(((2,),))
    with pytest.raises(ArithmeticError):
        exact_inverse(((1, 1), (1, 1)))


def _inverse_by_fractions(rows):
    """The earlier inverse, kept as the reference: Gauss-Jordan over
    Fraction, insisting the inverse is integral."""
    from fractions import Fraction

    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    assert all(v.denominator == 1 for row in aug for v in row[n:])
    return tuple(tuple(int(v) for v in row[n:]) for row in aug)


def _permuted_unitriangular(rng, n):
    """P L Q with L lower unitriangular, rows negated at random: unimodular."""
    lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return tuple(tuple(rng.choice((1, -1)) * lower[r][c] for c in cols) for r in rows)


def test_exact_inverse_matches_the_fraction_route():
    import random

    from qnsym import tableaux as tab

    for family in tab.FAMILIES:
        for n in range(7):
            kappa = tab.kappa_matrix(family, n)
            assert exact_inverse(kappa) == _inverse_by_fractions(kappa), (family, n)
    rng = random.Random(20240104)
    for n in range(1, 13):
        for _ in range(8):
            m = _permuted_unitriangular(rng, n)
            assert exact_inverse(m) == _inverse_by_fractions(m), m


def test_exact_inverse_pivots_only_on_units():
    # unimodular, but no entry is a unit: the documented limit
    with pytest.raises(ArithmeticError, match="unit pivot"):
        exact_inverse(((2, 3), (3, 5)))
    with pytest.raises(ArithmeticError, match="singular"):
        exact_inverse(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def test_transition_matrix():
    t = transition_matrix("H", "R", 2)
    assert t.indices == ((1, 1), (2,))
    assert t.rows == ((1, 1), (0, 1))
    rt = transition_matrix("R", "H", 2)
    assert rt.rows == ((1, -1), (0, 1))


def test_composition_index_bits_are_the_complement_of_the_descent_set():
    """What the whole-degree involutions index by: bit n - 1 - i of the
    index k of a composition of n (the first position highest) is set
    exactly when i is not a partial sum."""
    for n in range(1, 10):
        for k, c in enumerate(comps.compositions(n)):
            assert {i for i in range(1, n) if not k >> (n - 1 - i) & 1} == comps.set_of(c)


def test_whole_row_psi_is_the_product_with_the_closed_forms():
    """`core._psi` against the matrices of psi's closed forms, E_b in H on H
    and the signed coarsening sums on M, on rows with entries near the
    64-bit fields' limit; entries past it are refused."""
    for n in range(7):
        cs = comps.compositions(n)
        size = len(cs)
        big = (1 << 62) // size  # sums reach 2^62, inside the signed 64-bit fields
        rows = tuple(tuple((3 * i + 7 * j) % 11 - 5 + (big if i == j else -big if j == 0 else 0)
                           for j in range(size)) for i in range(size))
        for on_h, closed_form in ((True, core._E_H), (False, core._psi_M)):
            matrix = [[closed_form(a).get(c, 0) for c in cs] for a in cs]
            want = tuple(tuple(sum(matrix[i][k] * rows[k][j] for k in range(size))
                               for j in range(size)) for i in range(size))
            assert core._psi(rows, on_h) == want, (n, on_h)
    with pytest.raises(ArithmeticError, match="64-bit"):
        core._psi(((1 << 62, 0), (0, 0)), True)


def test_packed_product_is_the_matrix_product_and_refuses_past_64_bits():
    """`core._product` against the schoolbook product, on entries whose
    sums come within one of the signed 64-bit fields' limit; a factor pair
    whose row l1 norm times largest entry reaches 2^63 is refused."""
    top = (1 << 62) - 1
    left = ((1, 1, 0), (0, -1, 1), (2, 0, 0))
    for sign in (1, -1):
        right = ((sign * top, 3, 0), (sign * top, -5, 7), (0, 1, -sign * top))
        want = tuple(tuple(sum(left[i][k] * right[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))
        assert core._product(left, right) == want
    with pytest.raises(ArithmeticError, match="64-bit"):
        core._product(left, ((1 << 62, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_str_and_json_roundtrip():
    x = term("H", (3, 2)) - term("H", (4, 1))
    assert str(x) == "H[3,2] - H[4,1]"
    assert str(zero("NSym")) == "0"
    assert str(term("M", (), 1) - 2 * term("M", (1, 1))) == "M[] - 2 M[1,1]"
    data = x.to_json_dict()
    assert data == {
        "algebra": "NSym",
        "terms": [
            {"basis": "H", "index": [3, 2], "coeff": "1"},
            {"basis": "H", "index": [4, 1], "coeff": "-1"},
        ],
    }
    assert element_from_json(data) == x


def test_tensor_str_and_eq():
    t = coproduct(term("H", (1,)))
    assert str(t) == "H[] (x) H[1] + H[1] (x) H[]"
    assert t.convert("E", "E") == t
