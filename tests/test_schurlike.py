from functools import lru_cache
from typing import NamedTuple

import pytest

from qnsym import compositions as comps
from qnsym import core
from qnsym import schurlike as sl
from qnsym import tableaux as tab
from qnsym.core import antipode, coproduct, involution, multiply, pair, term


def comps_upto(n):
    for m in range(n + 1):
        yield from comps.compositions(m)


# The side and generator of each family's Pieri rule, restated from the paper
# (X_a H_r for shin, X_a E_r for row-strict, H_r X_a for flipped, E_r X_a for
# backward), so that the reference bodies below share nothing with schurlike.
PIERI_SIDE = {"shin": "right", "row_strict": "right", "flipped": "left", "backward": "left"}
PIERI_GENERATOR = {"shin": "H", "row_strict": "E", "flipped": "H", "backward": "E"}


# --- golden expansions --------------------------------------------------------

def test_shin_h_expansions():
    assert str(term("sh", (3, 2)).convert("H")) == "H[3,2] - H[4,1]"
    assert str(term("sh", (4, 1)).convert("H")) == "H[4,1] - H[5]"
    assert term("sh", (1, 3, 4)).convert("H") == (
        term("H", (1, 3, 4)) - term("H", (1, 4, 3))
        - term("H", (3, 1, 4)) + term("H", (4, 1, 3))
    )


def test_shin_224_six_terms():
    # the witness that no determinant expansion exists: six signed H-terms
    x = term("sh", (2, 2, 4)).convert("H")
    expected = {
        (2, 2, 4): 1, (2, 4, 2): -1, (3, 1, 4): -1,
        (4, 3, 1): 1, (5, 1, 2): 1, (5, 2, 1): -1,
    }
    assert x.canonical_dict() == expected


GOLDEN_F = [
    ("sh*", (2, 3), {(2, 3): 1, (1, 2, 2): 1}),
    ("rsh*", (2, 3), {(1, 2, 1, 1): 1, (2, 2, 1): 1}),
    ("fsh*", (3, 2), {(3, 2): 1, (2, 2, 1): 1}),
    ("bsh*", (3, 2), {(1, 1, 2, 1): 1, (1, 2, 2): 1}),
    ("fsh*", (1, 2, 1), {(1, 2, 1): 1, (2, 1, 1): 1}),
    ("bsh*", (1, 2, 1), {(2, 2): 1, (1, 3): 1}),
    ("bsh*", (2, 1), {(1, 2): 1}),
    ("sh*", (3, 1), {(2, 2): 1, (1, 3): 1, (3, 1): 1}),
    # first term is (2,1,1), the complement of the shin descent (1,3)
    ("rsh*", (3, 1), {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}),
]


@pytest.mark.parametrize("tok,alpha,expected", GOLDEN_F)
def test_star_f_expansions(tok, alpha, expected):
    got = term(tok, alpha).convert("F")
    assert dict(got.terms) == {("F", c): v for c, v in expected.items()}


# --- dual basis pairing -------------------------------------------------------

@pytest.mark.parametrize("ntok,qtok", [
    ("sh", "sh*"), ("rsh", "rsh*"), ("fsh", "fsh*"), ("bsh", "bsh*"),
])
def test_delta_pairing(ntok, qtok):
    for n in range(5):
        for a in comps.compositions(n):
            for b in comps.compositions(n):
                assert pair(term(ntok, a), term(qtok, b)) == (1 if a == b else 0)


def test_kappa_inverse_is_integral():
    # Pieri elimination against the general integer inverse of the chain K
    for n in range(10):
        assert sl._kappa_inverse(n) == core.exact_inverse(tab.kappa_matrix("shin", n)), n


# --- Pieri rules and beth -----------------------------------------------------

def test_pieri_six_term_example():
    got = sl.pieri("sh", (2, 3, 1), 2)
    expected = sum(
        (term("sh", b) for b in
         [(2, 3, 1, 2), (2, 3, 2, 1), (2, 3, 3), (2, 4, 1, 1), (2, 4, 2), (2, 5, 1)]),
        core.zero(core.NSYM),
    )
    assert got == expected


def test_pieri_matches_generic_product():
    for fam in ("sh", "rsh", "fsh", "bsh"):
        gen = PIERI_GENERATOR[sl.family_name(fam)]
        left = PIERI_SIDE[sl.family_name(fam)] == "left"
        for a in comps_upto(4):
            for r in range(4):
                got = sl.pieri(fam, a, r)
                if left:
                    want = multiply(term(gen, (r,)) if r else core.one(core.NSYM),
                                    term(fam, a), basis=fam)
                else:
                    want = multiply(term(fam, a),
                                    term(gen, (r,)) if r else core.one(core.NSYM),
                                    basis=fam)
                assert got == want, (fam, a, r)


def test_pieri_flipped_is_reverse_of_shin():
    got = sl.pieri("fsh", (1, 3, 2), 2)
    expected = sum(
        (term("fsh", comps.reverse(b)) for b in tab.strip_extensions((2, 3, 1), 2)),
        core.zero(core.NSYM),
    )
    assert got == expected


def test_beth_on_h():
    assert sl.beth(2, term("H", (3, 1))) == term("H", (2, 3, 1)) - term("H", (3, 2, 1))
    assert sl.beth(3, core.one(core.NSYM)) == term("H", (3,))


def test_beth_creation():
    # beth_m(sh_alpha) = sh_{(m)+alpha} whenever 0 < m < alpha_1
    for a in comps_upto(6):
        if not a:
            continue
        for m in range(1, a[0]):
            if m + sum(a) > 8:
                continue
            got = sl.beth(m, term("sh", a).convert("H")).convert("sh")
            assert got == term("sh", (m,) + a), (m, a)


def test_beth_buildup():
    # strictly increasing compositions are built by iterated creation operators
    for n in range(1, 9):
        for beta in comps.compositions(n):
            if not all(x < y for x, y in zip(beta, beta[1:])):
                continue
            x = core.one(core.NSYM)
            for part in reversed(beta):
                x = sl.beth(part, x)
            assert x.convert("sh") == term("sh", beta), beta


def test_beth_rejects_bad_input():
    with pytest.raises(ValueError):
        sl.beth(0, term("H", (1,)))
    with pytest.raises(ValueError):
        sl.beth(2, term("M", (1,)))
    # True would index H[True, 2], a key no constructor accepts
    with pytest.raises(ValueError):
        sl.beth(True, term("H", (2,)))


@pytest.mark.parametrize("r", [True, 1.0])
def test_pieri_rejects_a_strip_size_that_is_not_an_int(r):
    with pytest.raises(ValueError):
        sl.pieri("sh", (1,), r)


# --- Jacobi-Trudi -------------------------------------------------------------
#
# The paper's signed-permutation formula, kept as the reference body of the
# expansion that `sl.jacobi_trudi` builds with the creation operators:
# sh_beta = sum over the restricted permutations sigma of sign(sigma) times
# H_(beta_sigma(1), ..., beta_sigma(k)).

class RestrictedPermutation(NamedTuple):
    values: tuple  # sigma as (sigma(1), ..., sigma(k)), with sigma(i) >= i-1
    sign: int  # (-1)^inversions, carried while sigma grows


@lru_cache(maxsize=None)  # the tests list lengths 0 to 8 only
def restricted_permutations(k: int) -> tuple:
    """All permutations sigma of {1..k} with sigma(i) >= i-1, in lex order,
    grown position by position (2**(k-1) of them, not a filter over k!).
    Every value below i-1 sits before position i, so the unused values,
    kept ascending, start at i-1 or above; i-1 must go at position i if it
    is unused, and otherwise position i takes each unused value in turn.
    Appending v adds one inversion per larger value already placed, which
    keeps the sign."""
    out = []

    def grow(prefix, left, sign):  # left: the unused values, ascending
        i = len(prefix) + 1
        if i > k:
            out.append(RestrictedPermutation(prefix, sign))
            return
        for j in ((0,) if left[0] == i - 1 else range(len(left))):
            v = left[j]
            larger_placed = k - v - (len(left) - 1 - j)
            grow(prefix + (v,), left[:j] + left[j + 1:], -sign if larger_placed % 2 else sign)

    grow((), tuple(range(1, k + 1)), 1)
    return tuple(out)


def test_restricted_permutations():
    assert [p.values for p in restricted_permutations(3)] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2),
    ]
    assert [p.sign for p in restricted_permutations(3)] == [1, -1, -1, 1]
    assert len(restricted_permutations(5)) == 16  # 2^(k-1)


def _restricted_permutations_by_filter(k):
    """The earlier route, kept as the reference: filter all k! permutations."""
    from itertools import permutations

    return tuple(p for p in permutations(range(1, k + 1)) if all(p[i] >= i for i in range(k)))


def test_restricted_permutations_match_the_filter():
    for k in range(9):
        got = tuple(p.values for p in restricted_permutations(k))
        assert got == _restricted_permutations_by_filter(k), k
        assert len(got) == 2 ** max(k - 1, 0)


def test_jacobi_trudi_shin():
    got = sl.jacobi_trudi("sh", (1, 3, 4))
    assert got == term("sh", (1, 3, 4)).convert("H")
    assert got.canonical_dict() == {
        (1, 3, 4): 1, (1, 4, 3): -1, (3, 1, 4): -1, (4, 1, 3): 1,
    }


def test_jacobi_trudi_and_pieri_build_one_dict(monkeypatch):
    """Both accumulate their words into one dict; adding one Element per
    word copied the whole sum each time, quadratic in the output."""
    beta = (1, 2, 3, 4, 5, 6)
    want = (sl.pieri_elimination(beta), term("bsh", (3, 2, 1)).convert("E"),
            multiply(term("sh", (2, 3, 1)), term("H", (2,)), basis="sh"))

    def refuse(self, other):
        raise AssertionError("an Element was added term by term")

    monkeypatch.setattr(core._Combination, "__add__", refuse)
    got = (sl.jacobi_trudi("sh", beta), sl.jacobi_trudi("bsh", (3, 2, 1)),
           sl.pieri("sh", (2, 3, 1), 2))
    monkeypatch.undo()
    assert got == want
    assert [len(x.terms) for x in got] == [32, 4, 6]


def test_jacobi_trudi_refuses_more_than_the_budget_before_listing(monkeypatch):
    def refuse(m, x):
        raise AssertionError("words built past the budget")

    monkeypatch.setattr(sl, "beth", refuse)
    beta = tuple(range(1, 19))  # 2^17 restricted permutations
    for family, index in (("sh", beta), ("fsh", comps.reverse(beta))):
        with pytest.raises(ValueError, match="has 2\\^17 restricted permutations, "
                                             "past the budget of 65536"):
            sl.jacobi_trudi(family, index)


def test_jacobi_trudi_all_families():
    incr = [b for b in comps_upto(7) if b and all(x < y for x, y in zip(b, b[1:]))]
    for beta in incr:
        assert sl.jacobi_trudi("sh", beta) == term("sh", beta).convert("H")
        assert sl.jacobi_trudi("rsh", beta) == term("rsh", beta).convert("E")
        gamma = comps.reverse(beta)
        assert sl.jacobi_trudi("fsh", gamma) == term("fsh", gamma).convert("H")
        assert sl.jacobi_trudi("bsh", gamma) == term("bsh", gamma).convert("E")


def test_jacobi_trudi_rejects_non_monotone():
    with pytest.raises(ValueError, match="2,2,4"):
        sl.jacobi_trudi("sh", (2, 2, 4))
    with pytest.raises(ValueError):
        sl.jacobi_trudi("fsh", (1, 3))  # flipped wants strictly decreasing


def test_pieri_elimination_oracle_agrees():
    # Pieri-recursion route vs the inverse of K counted by backtracking
    for n in range(7):
        cs = comps.compositions(n)
        inverse = core.exact_inverse(tab.count_matrix("shin", cs))
        for j, beta in enumerate(cs):
            want = core.Element(core.NSYM, {("H", a): row[j] for a, row in zip(cs, inverse)})
            assert sl.pieri_elimination(beta) == want, beta


# --- ribbon multiplication ----------------------------------------------------

def test_ribbon_multiply_vs_generic():
    for fam in ("sh", "rsh", "fsh", "bsh"):
        left = PIERI_SIDE[sl.family_name(fam)] == "left"
        for a in comps_upto(4):
            for b in comps_upto(3):
                got = sl.ribbon_multiply(fam, a, b)
                if left:
                    want = multiply(term("R", b), term(fam, a), basis=fam)
                else:
                    want = multiply(term(fam, a), term("R", b), basis=fam)
                assert got == want, (fam, a, b)


def test_ribbon_multiply_example():
    # R_(2) = H_(2): multiplying by it is exactly the r=2 Pieri rule
    assert sl.ribbon_multiply("sh", (2, 3, 1), (2,)) == sl.pieri("sh", (2, 3, 1), 2)
    # R_(1,1) = H_(1,1) - H_(2): check against iterated Pieri, no generic product
    got = sl.ribbon_multiply("sh", (2, 3, 1), (1, 1))
    double = core.zero(core.NSYM)
    for (_, c), v in sl.pieri("sh", (2, 3, 1), 1).terms.items():
        double = double + v * sl.pieri("sh", c, 1)
    assert got == double - sl.pieri("sh", (2, 3, 1), 2)


# --- the family operations transported from sh, against per-family bodies -----
#
# pieri, jacobi_trudi and ribbon_multiply work for sh at the carried index and
# reach the other families by one psi, rho or omega reindex.  The references
# below are the per-family bodies they replaced: side, reversal and generator
# are chosen family by family, and ribbons are counted on tableaux.

FAMILY_TOKENS = ("sh", "rsh", "fsh", "bsh")


def _pieri_by_side(family, alpha, r):
    """Strip extensions on the right; reversed strip extensions of the
    reversal on the left."""
    if PIERI_SIDE[sl.family_name(family)] == "right":
        betas = tab.strip_extensions(alpha, r)
    else:
        betas = (comps.reverse(b) for b in tab.strip_extensions(comps.reverse(alpha), r))
    return core.Element(core.NSYM, {(family, beta): 1 for beta in betas})


def _jacobi_trudi_by_flipping(family, beta):
    """The signed-permutation formula, family by family: permutations act on
    beta in H (sh) or E (rsh); for fsh and bsh they act on the reversal and
    each word is reversed back.  The parts are distinct, so no two
    permutations share a word."""
    fam = sl.family_name(family)
    flip = fam in ("flipped", "backward")
    base = comps.reverse(beta) if flip else beta
    gen = "H" if fam in ("shin", "flipped") else "E"
    out = {}
    for sigma in restricted_permutations(len(base)):
        word = tuple(base[s - 1] for s in sigma.values)
        out[gen, comps.reverse(word) if flip else word] = sigma.sign
    return core.Element(core.NSYM, out)


def _ribbon_by_enumeration(family, alpha, beta):
    """Count the standard skew family tableaux of every shape gamma/alpha
    (bottom-aligned for the left-sided families) with descent composition
    beta."""
    family = sl.family_name(family)
    left_sided = PIERI_SIDE[family] == "left"
    out = {}
    for gamma in comps.compositions(sum(alpha) + sum(beta)):
        if not alpha:
            shape = tab.straight(gamma)
        elif left_sided:
            if not comps.dominated(comps.reverse(alpha), comps.reverse(gamma)):
                continue
            shape = tab.skew2(gamma, alpha)
        else:
            if not comps.dominated(alpha, gamma):
                continue
            shape = tab.skew(gamma, alpha)
        if not tab.is_chain_legal(shape):
            continue
        count = sum(1 for t in tab.enumerate_standard(shape, family)
                    if tab.descent_composition(t) == beta)
        if count:
            out[(sl.NSYM_TOKEN[family], gamma)] = count
    return core.Element(core.NSYM, out)


def test_pieri_matches_the_per_family_body():
    for fam in FAMILY_TOKENS:
        for a in comps_upto(6):
            for r in range(5):
                assert sl.pieri(fam, a, r) == _pieri_by_side(fam, a, r), (fam, a, r)


def test_jacobi_trudi_matches_the_flipped_word_listing():
    """The creation operators against the signed-permutation formula on
    every strictly increasing index with parts <= 11 and at most 8 parts
    (all those of degree <= 8 among them).  Both sides are words of the
    family's generator, compared term by term: an E-word of degree 60 is
    past the budget of a conversion to H."""
    from itertools import combinations

    increasing = [beta for k in range(9) for beta in combinations(range(1, 12), k)]
    assert len(increasing) == 1 + 1980
    for beta in increasing:
        for fam, index in (("sh", beta), ("rsh", beta),
                           ("fsh", comps.reverse(beta)), ("bsh", comps.reverse(beta))):
            want = _jacobi_trudi_by_flipping(fam, index)
            assert dict(sl.jacobi_trudi(fam, index).terms) == dict(want.terms), (fam, index)


def test_ribbon_multiply_matches_the_enumerating_body():
    for fam in FAMILY_TOKENS:
        for a in comps_upto(4):
            for b in comps_upto(4):
                want = _ribbon_by_enumeration(fam, a, b)
                assert sl.ribbon_multiply(fam, a, b) == want, (fam, a, b)


def test_ribbon_multiply_enumerates_no_tableau(monkeypatch):
    cases = [(fam, (2, 1, 2), (1, 2, 1)) for fam in FAMILY_TOKENS]
    want = [_ribbon_by_enumeration(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("tableaux enumerated for a ribbon product")

    monkeypatch.setattr(tab, "enumerate_standard", refuse)
    monkeypatch.setattr(tab, "_backtrack", refuse)
    assert [sl.ribbon_multiply(*case) for case in cases] == want


def test_ribbon_multiply_refuses_past_the_coarsening_budget():
    """1^19 and (19), the complement and transpose of each other, have 2^18
    coarsenings, past the listing budget; the strip walk lists none of them
    and answers with two terms."""
    ones = (1,) * 19
    for fam in FAMILY_TOKENS:
        beta = (19,) if fam in ("rsh", "bsh") else ones
        # compared term by term: degree 20 is past the dense budget of ==
        got = dict(sl.ribbon_multiply(fam, (1,), beta).terms)
        tall = (1,) * 18 + (2,) if fam in ("fsh", "bsh") else (2,) + (1,) * 18
        assert got == {(fam, (1,) * 20): 1, (fam, tall): 1}, fam


def _ribbon_by_listing(family, alpha, beta):
    """The listing body the strip walk replaced: the carried R_beta in H,
    whose words the shin strip chains apply part by part at the carried
    index."""
    carry, base = sl._at_sh(sl.family_name(family), alpha)
    words = {word: c for (_, word), c in carry(term("R", beta)).convert("H").terms.items()}
    out = {}
    for word, counts in tab.strip_chains(base, words):
        for gamma, m in counts.items():
            out[gamma] = out.get(gamma, 0) + words[word] * m
    return carry(core.Element(core.NSYM, {("sh", gamma): c for gamma, c in out.items()}))


def test_ribbon_multiply_matches_the_listing_body():
    cases = 0
    for fam in FAMILY_TOKENS:
        for a in comps_upto(4):
            for b in comps_upto(8 - sum(a)):
                got, want = sl.ribbon_multiply(fam, a, b), _ribbon_by_listing(fam, a, b)
                assert str(got) == str(want), (fam, a, b)
                cases += 1
    assert cases == 3072


def test_ribbon_multiply_refuses_past_the_live_state_budget(monkeypatch):
    monkeypatch.setattr(comps, "MAX_REFINEMENTS", 4)
    with pytest.raises(ValueError, match=r"sh\[2, 1\] R\[1, 2, 1\] needs more than 4 "
                                         r"live states, past the budget"):
        sl.ribbon_multiply("sh", (2, 1), (1, 2, 1))


def test_ribbon_multiply_refuses_during_the_step(monkeypatch):
    # the walk lists strips once per state, and enters 1, 4, 15 and 33
    # states at its first four parts; the fourth step ends past 50 live
    # states, so a refusal inside it lists more than 1 + 4 + 15 = 20 and
    # fewer than the 53 that finishing it would take
    true_strips, calls = tab.strip_extensions, []

    def recording(alpha, r):
        calls.append(alpha)
        return true_strips(alpha, r)

    monkeypatch.setattr(tab, "strip_extensions", recording)
    monkeypatch.setattr(comps, "MAX_REFINEMENTS", 50)
    with pytest.raises(ValueError, match="needs more than 50 live states"):
        sl.ribbon_multiply("sh", (1, 1), (1, 2) * 4)
    assert 20 < len(calls) < 53


def test_ribbon_multiply_by_r_of_ones_is_the_e_pieri_rule():
    """R_(1^n) = E_n, so rsh and bsh, whose Pieri rules multiply by E, answer
    1^19 from the one H-word of its complement (transpose)."""
    ones = (1,) * 19
    # compared term by term: degree 20 is past the dense budget of ==
    got = {fam: dict(sl.ribbon_multiply(fam, (1,), ones).terms) for fam in ("rsh", "bsh")}
    assert got["rsh"] == {("rsh", (1, 19)): 1, ("rsh", (19, 1)): 1, ("rsh", (20,)): 1}
    for fam in ("rsh", "bsh"):
        assert got[fam] == dict(sl.pieri(fam, (1,), 19).terms), fam


# --- skew and skew-II ---------------------------------------------------------

def test_skew_golden():
    got = sl.skew("rsh", (1, 3, 2), (1, 2)).convert("F")
    assert dict(got.terms) == {
        ("F", (2, 1)): 1, ("F", (1, 2)): 1, ("F", (1, 1, 1)): 1}


def test_skew_matches_tableau_counts():
    # on chain-legal shapes the M-coefficients count skew tableaux by type;
    # the right-sided families pair with skew shapes, the left-sided ones
    # with the bottom-aligned skew-II shapes
    for fam in tab.FAMILIES:
        ntok = sl.NSYM_TOKEN[fam]
        left = PIERI_SIDE[fam] == "left"
        for outer in comps_upto(5):
            for inner in comps_upto(sum(outer)):
                if not inner or inner == outer:
                    continue
                if left:
                    if not comps.dominated(comps.reverse(inner), comps.reverse(outer)):
                        continue
                    shape = tab.skew2(outer, inner)
                    got = sl.skew_ii(ntok, outer, inner)
                else:
                    if not comps.dominated(inner, outer):
                        continue
                    shape = tab.skew(outer, inner)
                    got = sl.skew(ntok, outer, inner)
                if not tab.is_chain_legal(shape):
                    continue
                n = sum(outer) - sum(inner)
                for gamma in comps.compositions(n):
                    assert got.coefficient("M", gamma) == tab.count_tableaux(
                        shape, fam, gamma), (fam, outer, inner, gamma)


def test_skew_outside_containment_is_zero():
    assert sl.skew("sh", (2, 1), (1, 2)).is_zero()


def test_skew_is_perp_for_every_family():
    # contained or not: for fsh and bsh perp is nonzero on some pairs whose
    # inner composition is not top-aligned inside the outer one
    for fam, qtok in sl.QSYM_TOKEN.items():
        ntok = sl.NSYM_TOKEN[fam]
        for outer in comps_upto(6):
            if not outer:
                continue
            f = term(qtok, outer)
            for inner in comps_upto(sum(outer)):
                assert sl.skew(fam, outer, inner) == core.perp(term(ntok, inner), f), (
                    fam, outer, inner)


def test_skew_ii_negative_coefficient():
    got = sl.skew_ii("sh", (2, 1, 3), (1, 2, 1))
    assert got.coefficient("M", (1, 1)) == -1
    assert any(c < 0 for c in got.canonical_dict().values())


def test_skew_transport_identities():
    for outer, inner in [((1, 3, 2), (1, 2)), ((2, 3), (2,)), ((2, 2), (1, 1))]:
        s = sl.skew("sh", outer, inner)
        ro, ri = comps.reverse(outer), comps.reverse(inner)
        assert involution("rho", s) == sl.skew_ii("fsh", ro, ri)
        assert involution("omega", s) == sl.skew_ii("bsh", ro, ri)


# --- structure coefficients ---------------------------------------------------

def test_structure_coeffs_shape():
    coeffs = sl.structure_coeffs("sh", (1,), (1,))
    assert all(isinstance(c, sl.StructureCoefficient) for c in coeffs)
    assert all(c.beta == (1,) and c.gamma == (1,) for c in coeffs)
    as_dict = {c.alpha: c.value for c in coeffs}
    prod = multiply(term("sh", (1,)), term("sh", (1,)), basis="sh")
    assert as_dict == {a: v for (_, a), v in prod.sorted_terms()}


def test_structure_coeffs_flipped_reversal():
    # the coefficient of fsh_alpha in fsh_beta fsh_gamma equals the
    # coefficient of sh_{alpha^r} in sh_{gamma^r} sh_{beta^r}
    for beta in comps_upto(3):
        for gamma in comps_upto(3):
            if not beta or not gamma:
                continue
            flipped = {c.alpha: c.value for c in sl.structure_coeffs("fsh", beta, gamma)}
            shin = {c.alpha: c.value
                    for c in sl.structure_coeffs(
                        "sh", comps.reverse(gamma), comps.reverse(beta))}
            assert flipped == {comps.reverse(a): v for a, v in shin.items()}


# --- coproduct formulas -------------------------------------------------------

def test_coproduct_formula_matches_deconcatenation():
    for fam, qtok in sl.QSYM_TOKEN.items():
        for alpha in comps_upto(5):
            lhs = coproduct(term(qtok, alpha)).convert("M", "M")
            assert sl.coproduct_formula(fam, alpha, "skew").convert("M", "M") == lhs
            assert sl.coproduct_formula(fam, alpha, "skew2").convert("M", "M") == lhs


def test_coproduct_formula_violations():
    # the inner compositions whose piece contributes yet falls outside the
    # containment bound (skew-II compares reversals): sh and rsh stay inside
    # it with skew but not with skew-II; fsh and bsh mirror them under rho
    def outside(fam, alpha, variant):
        peel, fix = (sl.skew_ii, comps.reverse) if variant == "skew2" else (sl.skew, tuple)
        return [beta for beta in comps_upto(sum(alpha))
                if not peel(fam, alpha, beta).is_zero()
                and not comps.dominated(fix(beta), fix(alpha))]

    counts = {(fam, variant): sum(len(outside(fam, alpha, variant)) for alpha in comps_upto(5))
              for fam in sl.NSYM_TOKEN for variant in ("skew", "skew2")}
    assert counts == {("shin", "skew"): 0, ("shin", "skew2"): 28,
                      ("row_strict", "skew"): 0, ("row_strict", "skew2"): 28,
                      ("flipped", "skew"): 28, ("flipped", "skew2"): 0,
                      ("backward", "skew"): 28, ("backward", "skew2"): 0}
    for fam, alpha, variant in (("sh", (2, 1), "skew2"), ("fsh", (1, 2), "skew"),
                                ("bsh", (1, 2), "skew")):
        assert (2,) in outside(fam, alpha, variant)


def test_coproduct_formula_rejects():
    with pytest.raises(ValueError):
        sl.coproduct_formula("sh", (2, 1), "skew3")


# --- involution transport and antipode ----------------------------------------

def test_involution_transport_on_bases():
    for n in range(6):
        for a in comps.compositions(n):
            r = comps.reverse(a)
            assert involution("psi", term("sh", a)) == term("rsh", a)
            assert involution("rho", term("sh", a)) == term("fsh", r)
            assert involution("omega", term("sh", a)) == term("bsh", r)
            assert involution("psi", term("sh*", a)) == term("rsh*", a)
            assert involution("rho", term("sh*", a)) == term("fsh*", r)
            assert involution("omega", term("sh*", a)) == term("bsh*", r)


def test_omega_star_golden():
    assert involution("omega", term("sh*", (2, 3))) == term("bsh*", (3, 2))


def test_antipode_on_shin():
    for n in range(6):
        sign = (-1) ** n
        for a in comps.compositions(n):
            assert antipode(term("sh", a), basis="bsh") == sign * term(
                "bsh", comps.reverse(a)), a


# --- reverse hooks -------------------------------------------------------------

def test_reverse_hook_characterization():
    # sh*_alpha equals F_alpha exactly when alpha = (1,...,1,m)
    for n in range(1, 7):
        for a in comps.compositions(n):
            is_reverse_hook = all(p == 1 for p in a[:-1])
            assert (term("sh*", a).convert("F") == term("F", a)) == is_reverse_hook, a


# --- the bridge to Sym ----------------------------------------------------------

def test_sym_element_basics():
    s21 = sl.SymElement("s", {(2, 1): 1})
    assert s21.to_basis("m").coeffs == {(2, 1): 1, (1, 1, 1): 2}
    h = sl.SymElement("h", {(2, 1): 1})
    assert h.to_basis("s").coeffs == {(2, 1): 1, (3,): 1}
    assert h.to_basis("m").coeffs == {(3,): 1, (2, 1): 2, (1, 1, 1): 3}
    assert s21.to_basis("h").coeffs == {(2, 1): 1, (3,): -1}
    with pytest.raises(ValueError):
        s21.to_basis("e")
    with pytest.raises(ValueError):
        sl.SymElement("p", {})


def test_sym_elements_compare_through_s(monkeypatch):
    """Two s-expansions compare without reading a Kostka line, and each
    function's s-, m- and h-forms stay equal to each other."""
    forms = [{basis: sl.SymElement("s", {lam: 1}).to_basis(basis) for basis in ("s", "m", "h")}
             for n in range(5) for lam in comps.partitions(n)]
    for one, other in zip(forms, forms[1:] + forms[:1]):
        for a in one.values():
            assert all(a == b for b in one.values()), str(a)
            assert all(a != b for b in other.values()), (str(a), str(other["s"]))

    def refuse(self, key):
        raise AssertionError("an s-to-s comparison read a matrix line")

    monkeypatch.setattr(core.MatrixLines, "__call__", refuse)
    x = sl.SymElement("s", {(2, 1): 2, (3,): -1})
    assert x == sl.SymElement("s", {(3,): -1, (2, 1): 2}) and x != 2 * x
    assert x - x == sl.SymElement("s") and forms[3]["s"] == sl.SymElement("s", {(2,): 1})


def test_m_to_s_roundtrip():
    for n in range(1, 7):
        for lam in comps.partitions(n):
            x = sl.SymElement("s", {lam: 1})
            assert x.to_basis("m").to_basis("s").coeffs == {lam: 1}


def test_kostka_matrix_values():
    ps = comps.partitions(3)  # ((1,1,1), (2,1), (3,))
    assert sl.kostka_matrix(3) == ((1, 0, 0), (2, 1, 0), (1, 1, 1))
    assert ps == ((1, 1, 1), (2, 1), (3,))


def test_chi_on_shin():
    for n in range(1, 7):
        for a in comps.compositions(n):
            image = sl.forgetful_chi(term("sh", a))
            if comps.is_partition(a):
                assert image == sl.SymElement("s", {a: 1}), a
            else:
                assert image.to_basis("m").is_zero(), a


def test_chi_is_multiplicative():
    import random
    rng = random.Random(172)
    cs = [c for c in comps_upto(4) if c]
    for _ in range(12):
        x = sum((rng.randint(-2, 2) * term("H", rng.choice(cs)) for _ in range(2)),
                core.zero(core.NSYM))
        y = sum((rng.randint(-2, 2) * term("R", rng.choice(cs)) for _ in range(2)),
                core.zero(core.NSYM))
        assert sl.forgetful_chi(multiply(x, y)) == sl.forgetful_chi(x) * sl.forgetful_chi(y)


def test_schur_detect():
    assert sl.schur_detect(term("sh*", (2, 1))) == sl.SymElement("s", {(2, 1): 1})
    assert sl.schur_detect(term("sh*", (1, 2))) is None
    assert sl.schur_detect(core.zero(core.QSYM)).is_zero()
    with pytest.raises(ValueError):
        sl.schur_detect(term("H", (2,)))


def test_starred_bases_at_partitions():
    for n in range(1, 7):
        for lam in comps.partitions(n):
            s_lam = sl.SymElement("s", {lam: 1})
            assert sl.schur_detect(term("sh*", lam)) == s_lam
            assert sl.schur_detect(term("fsh*", comps.reverse(lam))) == s_lam
            # backward: reversed index, conjugate partition
            assert sl.schur_detect(term("bsh*", comps.reverse(lam))) == sl.SymElement(
                "s", {comps.conjugate(lam): 1})


def test_backward_star_literal_indexing_fails():
    # the reversed-index form above is the correct one; the unreversed
    # index does not even give a symmetric function
    assert sl.schur_detect(term("bsh*", (2, 1))) is None
    assert sl.schur_detect(term("bsh*", (3, 1))) is None


def test_littlewood_richardson_classic():
    assert sl.littlewood_richardson((2, 1), (2, 1)) == {
        (2, 2, 1, 1): 1, (2, 2, 2): 1, (3, 1, 1, 1): 1,
        (3, 2, 1): 2, (3, 3): 1, (4, 1, 1): 1, (4, 2): 1,
    }
    assert sl.littlewood_richardson((2,), (1, 1)) == {(2, 1, 1): 1, (3, 1): 1}


def test_shin_structure_constants_lift_lr():
    # on partition indices the sh structure constants reproduce the LR
    # coefficients computed by the (independent) QSym product route
    pairs = [((2, 1), (2, 1)), ((2,), (2, 1)), ((1, 1), (2,)), ((2, 2), (1, 1))]
    for mu, nu in pairs:
        lr = sl.littlewood_richardson(mu, nu)
        coeffs = {c.alpha: c.value for c in sl.structure_coeffs("sh", mu, nu)}
        for lam, v in lr.items():
            assert coeffs.get(lam, 0) == v, (mu, nu, lam)


# --- K/L expansions -------------------------------------------------------------

def ell_matrix(family, n):
    """L[i][j] = #standard tableaux of shape C[i] with descent composition C[j]."""
    cs = comps.compositions(n)
    where = {c: j for j, c in enumerate(cs)}
    out = []
    for a in cs:
        row = [0] * len(cs)
        for t in tab.enumerate_standard(tab.straight(a), family):
            row[where[tab.descent_composition(t)]] += 1
        out.append(tuple(row))
    return tuple(out)


def test_h_and_r_expand_by_tableau_counts():
    for fam in tab.FAMILIES:
        ntok = sl.NSYM_TOKEN[fam]
        for n in range(5):
            cs = comps.compositions(n)
            kappa = tab.kappa_matrix(fam, n)
            ell = ell_matrix(fam, n)
            for j, beta in enumerate(cs):
                h = term("H", beta).convert(ntok)
                r = term("R", beta).convert(ntok)
                for i, alpha in enumerate(cs):
                    assert h.coefficient(ntok, alpha) == kappa[i][j]
                    assert r.coefficient(ntok, alpha) == ell[i][j]


# --- one source of truth: shin plus transport -------------------------------------

def _clear_conversion_caches():
    for cached in (sl._kappa_inverse, core._expand, core._unexpand, core._across,
                   core.transition_matrix):
        cached.cache_clear()


def test_schurlike_bases_need_only_the_shin_tableau_counts(monkeypatch):
    true_kappa = tab.kappa_matrix

    def shin_only(family, n):
        if family != "shin":
            raise AssertionError(f"{family} tableau counts read while building a basis")
        return true_kappa(family, n)

    monkeypatch.setattr(tab, "kappa_matrix", shin_only)
    _clear_conversion_caches()
    try:
        for ntok, qtok in zip(sl.NSYM_TOKEN.values(), sl.QSYM_TOKEN.values()):
            for n in range(7):
                for tok, canonical in ((ntok, "H"), (qtok, "M")):
                    forth = core.transition_matrix(tok, canonical, n).rows
                    back = core.transition_matrix(canonical, tok, n).rows
                    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*back)]
                               for row in forth]
                    assert product == [[int(i == j) for j in range(len(forth))]
                                       for i in range(len(forth))], (tok, n)
    finally:
        monkeypatch.undo()
        _clear_conversion_caches()


def test_shin_bases_are_built_without_enumerating_tableaux(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tableaux enumerated while building a basis")

    monkeypatch.setattr(tab, "_backtrack", refuse)
    tab.kappa_matrix.cache_clear()
    _clear_conversion_caches()
    try:
        for n in range(8):
            for tok, canonical in (("sh", "H"), ("sh*", "M")):
                forth = core.transition_matrix(tok, canonical, n).rows
                back = core.transition_matrix(canonical, tok, n).rows
                assert core.exact_inverse(forth) == back, (tok, n)
    finally:
        monkeypatch.undo()
        tab.kappa_matrix.cache_clear()
        _clear_conversion_caches()


def test_tableau_suite_reports_a_wrong_row_strict_count(monkeypatch):
    from qnsym import verify

    true_kappa = tab.kappa_matrix

    def off_by_one(family, n):
        rows = true_kappa(family, n)
        if (family, n) != ("row_strict", 3):
            return rows
        return (rows[0][:-1] + (rows[0][-1] + 1,),) + rows[1:]

    monkeypatch.setattr(tab, "kappa_matrix", off_by_one)
    failures = verify.verify("tableaux", max_degree=3).failures
    assert failures
    assert all(f.startswith("row_strict K[[1, 1, 1]][[3]] = 2 ") for f in failures), failures
    assert {"H -> rsh" in f for f in failures} == {True, False}


# --- the involutions in closed form ----------------------------------------------

INVOLUTIONS = ("psi", "rho", "omega")


def test_involutions_and_antipode_match_the_carrier_route():
    from qnsym import verify

    for tok in core.bases():
        for a in comps_upto(6):
            x = term(tok, a)
            for name in INVOLUTIONS:
                got = involution(name, x)
                assert got == verify.on_carrier(name, x), (name, tok, a)
                assert got.support_basis() in (None, core._PARTNER[name].get(tok, tok))
            assert antipode(x) == verify.on_carrier("omega", x, signed=True), (tok, a)


def test_involutions_and_antipode_never_convert_through_r_or_f(monkeypatch):
    def refuse(comp):
        raise AssertionError("converted through a ribbon/fundamental carrier")

    for carrier in ("R", "F"):
        info = core._REGISTRY[carrier]
        monkeypatch.setitem(core._REGISTRY, carrier, info._replace(expand=refuse,
                                                                   unexpand=refuse))
    core._image.cache_clear()
    _clear_conversion_caches()
    tokens = ("H", "M", "E") + tuple(sl.NSYM_TOKEN.values()) + tuple(sl.QSYM_TOKEN.values())
    try:
        images = {(name, tok, a): (antipode(x) if name == "S" else involution(name, x))
                  for tok in tokens for a in comps_upto(6) for x in (term(tok, a),)
                  for name in INVOLUTIONS + ("S",)}
    finally:
        monkeypatch.undo()
        _clear_conversion_caches()
    from qnsym import verify

    for (name, tok, a), got in images.items():
        want = verify.on_carrier("omega" if name == "S" else name, term(tok, a),
                                 signed=name == "S")
        assert got == want, (name, tok, a)


def test_involution_suite_reports_a_wrong_closed_form(monkeypatch):
    from qnsym import verify

    true_image = core._image

    def unsigned_psi(algebra, name, comp):
        if (algebra, name) == (core.QSYM, "psi"):
            return tuple((gamma, 1) for gamma in comps.coarsenings(comp))
        return true_image(algebra, name, comp)

    monkeypatch.setattr(core, "_image", unsigned_psi)
    true_image.cache_clear()
    _clear_conversion_caches()
    try:
        failures = verify.verify("involutions", max_degree=3).failures
    finally:
        monkeypatch.undo()
        true_image.cache_clear()
        _clear_conversion_caches()
    assert "psi(M[2]) differs from the carrier route" in failures
    # M[1, 1] has no sign to lose, and NSym keeps its closed form
    assert not any("(M[1, 1])" in f or "(H[" in f or "(E[" in f for f in failures)


def test_involution_suite_sweeps_every_product_pair_the_same_way(monkeypatch):
    from qnsym import verify

    def sweep():
        seen = []

        def recording(x, y):
            seen.append((str(x), str(y)))
            return multiply(x, y)

        monkeypatch.setattr(verify, "multiply", recording)
        report = verify.verify("involutions", max_degree=4)
        return (report.cases, report.failures), seen

    first, seen = sweep()
    assert sweep() == (first, seen)
    for left, right in (("H", "R"), ("M", "F")):
        want = {(str(term(left, a)), str(term(right, b)))
                for a in comps_upto(3) for b in comps_upto(4 - sum(a)) if a and b}
        assert len(want) == 1 + 4 + 12 and want <= set(seen), (left, right)


# --- the involutions as reindexings on the bases they define ------------------

def _canonical_route(name, x, basis):
    """psi, rho, omega or the antipode S of x through `core._image`."""
    if name == "S":
        return core._involute(x, "omega", True, basis)
    return core._involute(x, name, False, basis)


def _routed(name, x, basis=None):
    return antipode(x, basis) if name == "S" else involution(name, x, basis)


def _reindexed_bases():
    return sorted({tok for partners in core._PARTNER.values() for tok in partners})


def test_the_reindexed_bases_and_their_partners():
    assert _reindexed_bases() == sorted(("H", "E", "M", "R", "F") + tuple(sl.NSYM_TOKEN.values())
                                        + tuple(sl.QSYM_TOKEN.values()))
    assert core._PARTNER["psi"] == {"H": "E", "E": "H", "sh": "rsh", "rsh": "sh",
                                    "fsh": "bsh", "bsh": "fsh", "sh*": "rsh*",
                                    "rsh*": "sh*", "fsh*": "bsh*", "bsh*": "fsh*",
                                    "R": "R", "F": "F"}
    assert core._PARTNER["rho"] == {"H": "H", "E": "E", "M": "M", "sh": "fsh", "fsh": "sh",
                                    "rsh": "bsh", "bsh": "rsh", "sh*": "fsh*", "fsh*": "sh*",
                                    "rsh*": "bsh*", "bsh*": "rsh*", "R": "R", "F": "F"}
    assert core._PARTNER["omega"] == {
        t: core._PARTNER["rho"][p] for t, p in core._PARTNER["psi"].items()}
    # the index maps: R and F complement, reverse and transpose; every other
    # psi pair keeps the index, every other rho and omega pair reverses it
    maps = {"psi": comps.complement, "rho": comps.reverse, "omega": comps.transpose}
    for name, partners in core._PARTNER.items():
        assert set(core._INDEX_MAP[name]) == set(partners), name
        for tok, index_map in core._INDEX_MAP[name].items():
            want = maps[name] if tok in ("R", "F") else (tuple if name == "psi" else comps.reverse)
            assert index_map is want, (name, tok)


TRANSPORTED = (("rsh", "psi", "sh"), ("rsh*", "psi", "sh*"), ("fsh", "rho", "sh"),
               ("fsh*", "rho", "sh*"), ("bsh", "rho", "rsh"), ("bsh*", "rho", "rsh*"))


def _transported(name, source):
    """The maps schurlike built for each image basis before the registry
    derived them, kept as the reference: X_a = name(source_fix(a)) through
    the involution's canonical route."""
    canonical = core.CANONICAL[core.algebra_of(source)]
    fix = core._FIX[name]

    def expand(comp):
        return core._involute(term(source, fix(comp)), name, False, canonical).canonical_dict()

    def unexpand(comp):
        image = core._involute(term(canonical, comp), name, False, source)
        return {fix(c): v for (_, c), v in image.terms.items()}

    return expand, unexpand


def test_the_registry_derives_the_maps_of_the_transported_bases():
    """Every transported basis is registered as its image, and its maps
    (derived by the registry, or read off the partner's matrices for a
    starred basis) equal the hand-built ones on every index through
    degree 8."""
    for tok, name, source in TRANSPORTED:
        assert core._PARTNER[name][source] == tok and core._PARTNER[name][tok] == source
        info = core._REGISTRY[tok]
        assert info.algebra == core.algebra_of(source)
        expand, unexpand = _transported(name, source)
        for a in comps_upto(8):
            assert info.expand(a) == expand(a), (tok, a)
            assert info.unexpand(a) == unexpand(a), (tok, a)


def test_transition_matrices_match_the_term_by_term_rows():
    """The whole-degree route against the term-by-term one: every basis, both
    ways, degrees 0-7.  The image bases' rows come from the `_transported`
    reference, the others' from `Element.convert`."""
    reference = {tok: _transported(name, source) for tok, name, source in TRANSPORTED}
    for tok in core.bases():
        canonical = core.CANONICAL[core.algebra_of(tok)]
        for n in range(8):
            cs = comps.compositions(n)
            for way, pair in enumerate(((tok, canonical), (canonical, tok))):
                for a, row in zip(cs, core.transition_matrix(*pair, n).rows):
                    if tok in reference:
                        line = reference[tok][way](a)
                    else:
                        x = term(pair[0], a).convert(pair[1])
                        line = {c: v for (_, c), v in x.terms.items()}
                    assert row == tuple(line.get(c, 0) for c in cs), (pair, a)


def _term_by_term_matrix(source, target, n):
    """The route the one product replaced, kept as the reference: each row
    is one basis element converted through the canonical basis."""
    cs = comps.compositions(n)
    return tuple(tuple(term(source, a).convert(target).coefficient(target, c) for c in cs)
                 for a in cs)


def test_transition_matrices_between_two_bases_are_the_product_through_the_canonical_one():
    """All 169 ordered pairs of bases, degrees 0-5: T(s -> t) is the product
    T(s -> canonical) T(canonical -> t), equal to the term-by-term rows, and
    a pair across the two algebras is refused."""
    for source in core.bases():
        for target in core.bases():
            for n in range(6):
                if core.algebra_of(source) != core.algebra_of(target):
                    with pytest.raises(ValueError, match="one algebra"):
                        core.transition_matrix(source, target, n)
                    continue
                assert core.transition_matrix(source, target, n).rows == \
                    _term_by_term_matrix(source, target, n), (source, target, n)


def test_tableau_suite_reports_psi_without_its_sign(monkeypatch):
    """With the sign of the whole-degree psi dropped, the row-strict and
    backward matrices (backward is rho of row-strict) no longer match their
    tableau counts, and the flipped ones, carried by rho alone, still do."""
    from qnsym import verify

    monkeypatch.setattr(core, "_sign", lambda rows: None)
    _clear_conversion_caches()
    try:
        failures = verify.verify("tableaux", max_degree=3).failures
    finally:
        monkeypatch.undo()
        _clear_conversion_caches()
    transport = [f for f in failures if "but transport" in f]
    assert {f.split()[0] for f in transport} == {"row_strict", "backward"}, failures
    for label in ("H -> rsh", "rsh* -> M", "H -> bsh", "bsh* -> M"):
        assert any(label in f for f in transport), (label, failures)


def test_bsh_is_omega_of_sh_and_an_omega_image_alone_is_refused(monkeypatch):
    """bsh and bsh* are registered as omega of sh and sh*.  Their maps are
    rsh's and rsh*'s lines with the reversal composed into `fix` (omega =
    rho psi, and psi keeps sh's indices), and they equal omega of sh and sh*
    by the canonical route through degree 7.  An omega image whose psi
    partner moves the indices (R, complemented) has no matrix to read
    through a reversal and is refused."""
    for tok, source, partner in (("bsh", "sh", "rsh"), ("bsh*", "sh*", "rsh*")):
        assert core._PARTNER["omega"][source] == tok
        info = core._REGISTRY[tok]
        assert info[1:3] == tuple(m._replace(fix=core._KLEIN[core._KLEIN.index(m.fix) ^ 1])
                                  for m in core._REGISTRY[partner][1:3])
        assert core._derived(tok, info.algebra, "omega", source) == info[1:3]
        expand, unexpand = _transported("omega", source)
        for a in comps_upto(7):
            assert info.expand(a) == expand(a), (tok, a)
            assert info.unexpand(a) == unexpand(a), (tok, a)
    before = core.bases()
    with pytest.raises(ValueError, match="needs both expansion maps or an image to derive them"):
        core.register_basis("X", core.NSYM, image=("omega", "R"))
    assert core.bases() == before
    # were psi(sh_a) = rsh_f(a), rsh's lines reversed would not be omega's
    monkeypatch.setitem(core._INDEX_MAP["psi"], "sh", comps.complement)
    assert core._derived("X", core.NSYM, "omega", "sh") == (None, None)


def test_no_line_read_builds_a_reindexed_or_transposed_matrix():
    """Every Schur-like map reads K, K^-1, T(rsh -> H) or T(H -> rsh) in
    place: one term of each basis but rsh converted both ways at degree 7
    leaves only the two carried psi matrices in `transition_matrix`."""
    _clear_conversion_caches()
    try:
        for tok in ("sh", "sh*", "rsh*", "fsh", "fsh*", "bsh", "bsh*"):
            canonical = core.CANONICAL[core.algebra_of(tok)]
            term(tok, (2, 1, 3, 1)).convert(canonical)
            term(canonical, (1, 3, 2, 1)).convert(tok)
        assert core.transition_matrix.cache_info().currsize == 2
        core.transition_matrix("rsh", "H", 7)
        core.transition_matrix("H", "rsh", 7)
        info = core.transition_matrix.cache_info()
        assert (info.misses, info.currsize) == (2, 2)  # both were cached already
    finally:
        _clear_conversion_caches()


def test_the_starred_bases_read_their_partners_matrices_transposed(monkeypatch):
    """Each starred basis is the dual of its partner, T(X* -> M) = T(H -> X)^t
    and T(M -> X*) = T(X -> H)^t, so building all eight bases both ways runs
    psi twice a degree, for T(rsh -> H) and T(H -> rsh)."""
    calls = []
    true_psi = core._psi

    def counted(rows, on_h):
        calls.append(on_h)
        return true_psi(rows, on_h)

    monkeypatch.setattr(core, "_psi", counted)
    core.transition_matrix.cache_clear()
    try:
        for n in range(8):
            calls.clear()
            for tok in (*sl.NSYM_TOKEN.values(), *sl.QSYM_TOKEN.values()):
                can = core.CANONICAL[core.algebra_of(tok)]
                forth, back = core.transition_matrix(tok, can, n), core.transition_matrix(can, tok, n)
                if tok in sl.QSYM_TOKEN.values():
                    partner = tok[:-1]
                    assert forth.rows == tuple(zip(*core.transition_matrix("H", partner, n).rows))
                    assert back.rows == tuple(zip(*core.transition_matrix(partner, "H", n).rows))
            assert len(calls) == 2, (n, calls)
    finally:
        monkeypatch.undo()
        core.transition_matrix.cache_clear()


def test_e_keeps_its_closed_form_maps():
    assert core._REGISTRY["E"].expand is core._E_H
    assert core._REGISTRY["E"].unexpand is core._E_H


@pytest.mark.parametrize("kwargs", [
    {}, {"expand": dict}, {"unexpand": dict}, {"image": ("phi", "sh")},
    {"image": ("psi", "nosuch")}, {"image": ("omega", "R")}, {"image": ("rho", "R")},
    {"expand": dict, "unexpand": dict, "image": ("phi", "sh")}, {"image": ("omega", "H")}])
def test_a_basis_with_neither_maps_nor_an_image_is_refused(kwargs):
    """Refused before anything is registered: no maps and no image, an image
    that is no involution of a registered basis, and an image the registry
    cannot derive maps from (omega of R, whose psi partner complements the
    index, omega of H, whose psi partner E has closed-form maps, or rho of
    closed-form maps)."""
    before = core.bases(), dict(core._PARTNER["psi"])
    name, source = kwargs.get("image", (None, None))
    match = ("is no involution of a basis" if name == "phi" or source == "nosuch"
             else "needs both expansion maps or an image")
    with pytest.raises(ValueError, match=match):
        core.register_basis("X", core.NSYM, **kwargs)
    assert (core.bases(), core._PARTNER["psi"]) == before
    assert "X" not in core._TOKEN_ORDER


def test_reindexing_matches_the_canonical_route_on_every_basis_element():
    """Into the default basis and the partner to degree 7, into every basis
    to degree 6 (every basis at degree 7 alone takes about 10 s)."""
    for tok in _reindexed_bases():
        algebra = core.algebra_of(tok)
        canonical = core.CANONICAL[algebra]
        for a in comps_upto(7):
            x = term(tok, a)
            for name in INVOLUTIONS + ("S",):
                want = _canonical_route(name, x, canonical)
                partner = core._PARTNER["omega" if name == "S" else name].get(tok, tok)
                every = core.bases(algebra) if sum(a) <= 6 else (partner,)
                for basis in (None,) + every:
                    got = _routed(name, x, basis)
                    target = basis or (tok if name == "S" else core._PARTNER[name].get(tok, tok))
                    assert dict(got.terms) == dict(want.convert(target).terms), \
                        (name, tok, a, basis)


def test_reindexing_matches_the_canonical_route_on_seeded_combinations():
    import random

    rng = random.Random(10)
    for _ in range(400):
        tok = rng.choice(core.bases())
        algebra = core.algebra_of(tok)
        # one basis (a reindex where tok has a partner) or a mixed support
        toks = [tok] * 3 if rng.random() < 0.7 else list(core.bases(algebra))
        x = sum((rng.randint(-4, 4) * term(rng.choice(toks), rng.choice(
            comps.compositions(rng.randint(0, 6)))) for _ in range(rng.randint(1, 4))),
            core.zero(algebra))
        for name in INVOLUTIONS + ("S",):
            for basis in (None, rng.choice(core.bases(algebra))):
                got = _routed(name, x, basis)
                target = got.support_basis()
                want = _canonical_route(name, x, target or core.CANONICAL[algebra])
                assert dict(got.terms) == dict(want.terms), (name, str(x), basis)


def test_partner_involutions_of_schurlike_bases_never_convert(monkeypatch):
    def refuse(*args):
        raise AssertionError("converted through the canonical basis")

    tokens = ("R", "F") + tuple(sl.NSYM_TOKEN.values()) + tuple(sl.QSYM_TOKEN.values())
    cases = [(name, term(tok, a)) for tok in tokens for a in comps_upto(6)
             for name in INVOLUTIONS + ("S",)]
    partner = {name: core._PARTNER["omega" if name == "S" else name] for name, _ in cases}
    want = [_canonical_route(name, x, partner[name][x.support_basis()]) for name, x in cases]
    monkeypatch.setattr(core, "_expand", refuse)
    monkeypatch.setattr(core, "_unexpand", refuse)
    got = [_routed(name, x, partner[name][x.support_basis()]) for name, x in cases]
    default = [involution(name, x) for name, x in cases if name != "S"]
    monkeypatch.undo()
    assert [dict(y.terms) for y in got] == [dict(y.terms) for y in want]
    assert [dict(y.terms) for y in default] == [
        dict(y.terms) for (name, _), y in zip(cases, want) if name != "S"]


def _leg(image, algebra, basis, comp):
    return ((comp, 1),) if basis == core.CANONICAL[algebra] else image(basis, comp)


def _one_pass_convert(t, left_basis, right_basis):
    """The earlier tensor conversion, kept as the reference: every canonical
    term converts both legs at once, |U(c1)| * |U(c2)| products per term."""
    terms = {}
    for (c1, c2), coeff in _one_pass_canonical(t).items():
        for d1, v1 in _leg(core._unexpand, t.algebra, left_basis, c1):
            for d2, v2 in _leg(core._unexpand, t.algebra, right_basis, c2):
                k = ((left_basis, d1), (right_basis, d2))
                terms[k] = terms.get(k, 0) + coeff * v1 * v2
    return {k: v for k, v in terms.items() if v}


def _one_pass_canonical(t):
    out = {}
    for ((bl, cl), (br, cr)), coeff in t.terms.items():
        for c1, v1 in _leg(core._expand, t.algebra, bl, cl):
            for c2, v2 in _leg(core._expand, t.algebra, br, cr):
                out[c1, c2] = out.get((c1, c2), 0) + coeff * v1 * v2
    return {k: v for k, v in out.items() if v}


def test_two_pass_tensor_conversion_matches_the_one_pass_loop():
    for tok in core.bases():
        pool = core.bases(core.algebra_of(tok))
        for a in comps_upto(5):
            delta = coproduct(term(tok, a))
            # every leg canonical: canonical_dict passes the terms through
            assert delta.canonical_dict() == _loop_tensor_canonical(delta), (tok, a)
            for left in pool:
                for right in pool:
                    got = delta.convert(left, right)
                    assert dict(got.terms) == _one_pass_convert(delta, left, right), \
                        (tok, a, left, right)
                    # legs in two bases: canonical_dict against the reference too
                    if sum(a) <= 3:
                        assert got.canonical_dict() == _one_pass_canonical(got), \
                            (tok, a, left, right)


# The hand-written loops that `core.linear` and `core._leg` replaced, kept as
# the reference bodies of the kernel's differential test.

def _loop_canonical_dict(x):
    target = core.CANONICAL[x.algebra]
    out = {}
    for (basis, comp), coeff in x.terms.items():
        if basis == target:
            out[comp] = out.get(comp, 0) + coeff
        else:
            for c2, v in core._expand(basis, comp):
                out[c2] = out.get(c2, 0) + coeff * v
    return {c: v for c, v in out.items() if v}


def _loop_convert(canonical_terms, algebra, target):
    canonical = core.CANONICAL[algebra]
    if target == canonical:
        return {(canonical, c): v for c, v in canonical_terms.items()}
    terms = {}
    for comp, coeff in canonical_terms.items():
        for c2, v in core._unexpand(target, comp):
            k = (target, c2)
            terms[k] = terms.get(k, 0) + coeff * v
    return {k: v for k, v in terms.items() if v}


def _loop_involute(x, name, signed, basis):
    out = {}
    for comp, coeff in _loop_canonical_dict(x).items():
        if signed and sum(comp) % 2:
            coeff = -coeff
        for c, v in core._image(x.algebra, name, comp):
            out[c] = out.get(c, 0) + coeff * v
    return _loop_convert({c: v for c, v in out.items() if v}, x.algebra, basis)


def _loop_involution_route(name, x, signed, basis):
    """The earlier `core._apply`: on a basis that `name` reindexes, the
    reindex into the partner, then `Element.convert` unless `basis` is the
    partner; any other x through the canonical route."""
    support = x.support_basis()
    if support not in core._PARTNER[name]:
        return core._involute(x, name, signed, basis)
    partner, fix = core._PARTNER[name][support], core._INDEX_MAP[name][support]
    image = core.Element(x.algebra, {(partner, fix(comp)): -c if signed and sum(comp) % 2 else c
                                     for (_, comp), c in x.terms.items()})
    return image if basis == partner else image.convert(basis)


def _loop_multiply(x, y, basis=None):
    """The earlier `multiply`: `_canonical_product` per pair of canonical
    terms, y's canonical coefficients read once per term of x."""
    out = {}
    for a, ca in x.canonical_dict().items():
        for b, cb in y.canonical_dict().items():
            for g, v in core._canonical_product(x.algebra, a, b):
                out[g] = out.get(g, 0) + ca * cb * v
    canonical = core.CANONICAL[x.algebra]
    result = core.Element(x.algebra, {(canonical, g): v for g, v in out.items()})
    return result.convert(basis or x.support_basis() or canonical)


def _loop_coproduct(x):
    canonical = core.CANONICAL[x.algebra]
    out = {}
    for comp, coeff in _loop_canonical_dict(x).items():
        if x.algebra == core.NSYM:
            splits = core._coproduct_H(comp)
        else:
            splits = tuple(((comp[:i], comp[i:]), 1) for i in range(len(comp) + 1))
        for (l, r), v in splits:
            k = ((canonical, l), (canonical, r))
            out[k] = out.get(k, 0) + coeff * v
    return {k: v for k, v in out.items() if v}


def _loop_expand_leg(terms, side, canonical):
    out = {}
    for key, coeff in terms.items():
        if not coeff:
            continue
        basis, comp = key[side]
        for leg, v in (((comp, 1),) if basis == canonical else core._expand(basis, comp)):
            k = (leg, key[1]) if side == 0 else (key[0], leg)
            out[k] = out.get(k, 0) + coeff * v
    return out


def _loop_unexpand_leg(terms, side, basis):
    out = {}
    for key, coeff in terms.items():
        if not coeff:
            continue
        for leg, v in core._unexpand(basis, key[side]):
            k = (leg, key[1]) if side == 0 else (key[0], leg)
            out[k] = out.get(k, 0) + coeff * v
    return out


def _loop_tensor_canonical(t):
    canonical = core.CANONICAL[t.algebra]
    both = _loop_expand_leg(_loop_expand_leg(dict(t.terms), 0, canonical), 1, canonical)
    return {k: v for k, v in both.items() if v}


def _loop_tensor_convert(t, left_basis, right_basis):
    canonical = core.CANONICAL[t.algebra]
    terms = _loop_tensor_canonical(t)
    for side, basis in ((0, left_basis), (1, right_basis)):
        if basis != canonical:
            terms = _loop_unexpand_leg(terms, side, basis)
    return {((left_basis, d1), (right_basis, d2)): v
            for (d1, d2), v in terms.items() if v}


def _loop_beth(m, x):
    out = {}

    def add(comp, c):
        key = ("H", comp)
        out[key] = out.get(key, 0) + c

    for comp, c in x.canonical_dict().items():
        if not comp:
            add((m,), c)
        else:
            add((m,) + comp, c)
            add((comp[0], m) + comp[1:], -c)
    return {k: v for k, v in out.items() if v}


def _loop_chi(x):
    out = {}
    for comp, c in x.canonical_dict().items():
        lam = comps.sort_to_partition(comp)
        out[lam] = out.get(lam, 0) + c
    return {k: v for k, v in out.items() if v}


def _loop_apply(lines, coeffs):
    out = {}
    for key, c in coeffs.items():
        for k, v in lines(key).items():
            out[k] = out.get(k, 0) + c * v
    return {k: c for k, c in out.items() if c}


def _loop_peel(h, f, front):
    """The earlier `core._peel`, its own accumulating loop."""
    fc = f.canonical_dict()
    out = {}
    for beta, hc in h.canonical_dict().items():
        k = len(beta)
        for delta, c in fc.items():
            if len(delta) < k:
                continue
            cut = k if front else len(delta) - k
            peeled, rest = (delta[:cut], delta[cut:]) if front else (delta[cut:], delta[:cut])
            if peeled == beta:
                key = ("M", rest)
                out[key] = out.get(key, 0) + hc * c
    return {k: v for k, v in out.items() if v}


def _loop_tensor_product(x, y):
    """The earlier `TensorElement._product`, its own accumulating loop."""
    out = {}
    for (a1, a2), c1 in x.canonical_dict().items():
        for (b1, b2), c2 in y.canonical_dict().items():
            for g1, v1 in core._canonical_product(x.algebra, a1, b1):
                for g2, v2 in core._canonical_product(x.algebra, a2, b2):
                    k = (g1, g2)
                    out[k] = out.get(k, 0) + c1 * c2 * v1 * v2
    canonical = core.CANONICAL[x.algebra]
    return {((canonical, g1), (canonical, g2)): v for (g1, g2), v in out.items() if v}


def _loop_coproduct_H(comp):
    """The earlier `core._coproduct_H`, its own accumulating loop."""
    pieces = {((), ()): 1}
    for part in comp:
        nxt = {}
        for (l, r), c in pieces.items():
            for i in range(part + 1):
                left = l + (i,) if i else l
                right = r + (part - i,) if part - i else r
                k = (left, right)
                nxt[k] = nxt.get(k, 0) + c
        pieces = nxt
    return tuple(sorted(pieces.items()))


def _cancelling():
    """R[1,1] + R[2] - H[1,1], which is 0 in three nonzero terms."""
    return term("R", (1, 1)) + term("R", (2,)) - term("H", (1, 1))


def _cancelling_qsym():
    """F[2] - F[1,1] - M[2], which is 0 in three nonzero terms."""
    return term("F", (2,)) - term("F", (1, 1)) - term("M", (2,))


def test_the_linear_kernel_matches_the_loops_it_replaced():
    """Every route through `core.linear` or `core._leg` against the loop it
    replaced, on every basis element through degree 5 and a sum that
    cancels: the canonical coefficients, every conversion, the canonical
    involution route (signed too), the coproduct and its conversion into the
    element's basis, beth, the forgetful map, and the Sym bridge's lines.
    Beside them, the routes that stopped converting through the canonical
    basis: products (into every basis, through degree 3), and the
    involutions and the antipode of every basis element through degree 6
    into every basis, against the reindex-then-convert route.  Last, the
    bilinear maps that handed their loops to `linear`: perp and rperp of
    every H, R and sh term through degree 3 against every M, F and sh* term
    through degree 6 (and sums that cancel), the product of every pair of
    two-leg tensor terms with legs through degree 2, over H/E and over M/F,
    and the H coproduct of every composition through degree 8."""
    elements = [term(tok, a) for tok in core.bases() for a in comps_upto(5)] + [_cancelling()]
    factors = {alg: [term(b, (1, 2)) - 2 * term(b, (1,)) for b in core.bases(alg)]
               + [_cancelling() if alg == core.NSYM else term("M", (2,)) - term("F", (1, 1))]
               for alg in (core.NSYM, core.QSYM)}
    for x in elements:
        canonical = core.CANONICAL[x.algebra]
        tok = x.support_basis() or canonical
        assert x.canonical_dict() == _loop_canonical_dict(x), str(x)
        for target in core.bases(x.algebra):
            assert dict(x.convert(target).terms) == _loop_convert(
                _loop_canonical_dict(x), x.algebra, target), (str(x), target)
            for y in factors[x.algebra] if max(x.degrees()) <= 3 else ():
                assert dict(multiply(x, y, target).terms) == dict(
                    _loop_multiply(x, y, target).terms), (str(x), str(y), target)
        for name in INVOLUTIONS:
            for signed in (False, True):
                assert dict(core._involute(x, name, signed, tok).terms) == _loop_involute(
                    x, name, signed, tok), (str(x), name, signed)
        delta = coproduct(x)
        assert dict(delta.terms) == _loop_coproduct(x), str(x)
        converted = delta.convert(tok, tok)
        assert dict(converted.terms) == _loop_tensor_convert(delta, tok, tok), str(x)
        assert converted.canonical_dict() == _loop_tensor_canonical(converted), str(x)
        if x.algebra == core.NSYM:
            for m in (1, 2):
                assert dict(sl.beth(m, x).terms) == _loop_beth(m, x), (m, str(x))
            assert dict(sl.forgetful_chi(x).coeffs) == _loop_chi(x), str(x)
    for x in [term(tok, a) for tok in core.bases() for a in comps_upto(6)] + [_cancelling()]:
        for basis in (None,) + core.bases(x.algebra):
            default = basis or x.support_basis() or core.CANONICAL[x.algebra]
            assert dict(antipode(x, basis).terms) == dict(
                _loop_involution_route("omega", x, True, default).terms), (str(x), basis)
            for name in INVOLUTIONS if basis else ():
                assert dict(involution(name, x, basis).terms) == dict(
                    _loop_involution_route(name, x, False, basis).terms), (str(x), name, basis)
    for n in range(7):
        lams = comps.partitions(n)
        coeffs = {lam: (-1) ** i * (i + 1) for i, lam in enumerate(lams)}
        for matrix in (sl.kostka_matrix, sl._kostka_inverse):
            for column in (False, True):
                lines = core.MatrixLines(matrix, comps.partitions, column)
                assert lines.apply(coeffs) == _loop_apply(lines, coeffs), (n, column)
    hs = [term(b, a) for b in ("H", "R", "sh") for a in comps_upto(3)] + [_cancelling()]
    fs = [term(b, a) for b in ("M", "F", "sh*") for a in comps_upto(6)] + [_cancelling_qsym()]
    for h in hs:
        for f in fs:
            for peel, front in ((core.perp, True), (core.rperp, False)):
                assert dict(peel(h, f).terms) == _loop_peel(h, f, front), (str(h), str(f), front)
    for legs in (("H", "E"), ("M", "F")):
        tensors = [core.tensor_term(b1, a1, b2, a2) for b1 in legs for a1 in comps_upto(2)
                   for b2 in legs for a2 in comps_upto(2)]
        for x in tensors:
            for y in tensors:
                assert dict((x * y).terms) == _loop_tensor_product(x, y), (str(x), str(y))
    for a in comps_upto(8):
        assert core._coproduct_H(a) == _loop_coproduct_H(a), a


def test_the_linear_kernel_drops_what_cancels():
    x = _cancelling()
    assert len(x.terms) == 3 and x.canonical_dict() == {}
    assert x == core.zero(core.NSYM) and not (x - x).terms
    for basis in core.bases(core.NSYM):
        assert x.convert(basis).is_zero(), basis
    assert coproduct(x).is_zero()
    assert sl.beth(2, x).is_zero() and sl.forgetful_chi(x).is_zero()
    # a tensor whose left legs cancel once expanded, beside one that stays
    kept = core.tensor_term("sh", (2,), "H", (1,))
    t = kept + sum((core.tensor_term(b, a, "E", (1,), c)
                    for (b, a), c in x.terms.items()), core.TensorElement(core.NSYM))
    assert 0 not in t.canonical_dict().values()
    assert t.canonical_dict() == kept.canonical_dict()
    assert core.linear({"a": 1, "b": 1}, lambda k: (("x", 1), ("y", 1 if k == "a" else -1))) \
        == {"x": 2}


def test_to_qsym_writes_each_rearrangement_once():
    assert sl.SymElement("m", {(1,) * 10: 1}).to_qsym().terms == {("M", (1,) * 10): 1}
    x = sl.SymElement("m", {(2, 1, 1): 3}).to_qsym()
    assert x.terms == {("M", a): 3 for a in ((1, 1, 2), (1, 2, 1), (2, 1, 1))}


def test_schur_detect_needs_every_rearrangement():
    assert sl.schur_detect(term("M", (2, 1))) is None
    assert sl.schur_detect(term("M", (2, 1)) + term("M", (1, 2))) == sl.SymElement(
        "m", {(2, 1): 1})


def _m_to_s_by_fractions(coeffs):
    """The earlier m -> s route, kept as the reference: back-substitution
    against the Kostka matrix over Fraction."""
    from fractions import Fraction

    out = {}
    by_degree = {}
    for lam, c in coeffs.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for n, piece in by_degree.items():
        ps = comps.partitions(n)
        kost = sl.kostka_matrix(n)
        a = [Fraction(piece.get(mu, 0)) for mu in ps]
        d = [Fraction(0)] * len(ps)
        for i in reversed(range(len(ps))):
            d[i] = (a[i] - sum(d[k] * kost[k][i] for k in range(i + 1, len(ps)))) / kost[i][i]
        for j in range(len(ps)):
            assert sum(d[i] * kost[i][j] for i in range(len(ps))) == a[j]
        for i, lam in enumerate(ps):
            if d[i]:
                assert d[i].denominator == 1
                out[lam] = int(d[i])
    return out


def test_integer_m_to_s_matches_the_fraction_route():
    import random

    rng = random.Random(20240102)
    for n in range(9):
        ps = comps.partitions(n)
        for _ in range(6):
            picked = rng.sample(ps, rng.randint(1, len(ps)))
            coeffs = {lam: rng.choice((-5, -2, -1, 1, 3, 7)) for lam in picked}
            # mix in a lower degree too, so the per-degree split is exercised
            if n > 1:
                lower = comps.partitions(rng.randrange(1, n))
                coeffs[rng.choice(lower)] = rng.randint(1, 4)
            got = sl._m_to_s(coeffs)
            assert got == _m_to_s_by_fractions(coeffs), (n, coeffs)
            assert all(type(v) is int for v in got.values())
            assert sl.SymElement("s", got).to_basis("m") == sl.SymElement("m", coeffs)


def _schur_detect_by_enumeration(f):
    """The earlier schur_detect, kept as the reference: it lists every
    rearrangement of each partition present with set(permutations(lam))."""
    from itertools import permutations

    md = f.canonical_dict()
    by_partition = {}
    for comp, c in md.items():
        lam = comps.sort_to_partition(comp)
        if comp == lam:
            by_partition[lam] = c
    for comp, c in md.items():
        if by_partition.get(comps.sort_to_partition(comp), 0) != c:
            return None
    for lam, c in by_partition.items():
        for alpha in set(permutations(lam)):
            if md.get(alpha, 0) != c:
                return None
    return sl.SymElement("m", by_partition).to_basis("s")


def _symmetric_perturbations(md, rng):
    """Three copies of a symmetric M-expansion md, each made non-symmetric:
    one rearrangement dropped, one coefficient changed, one stray member of
    an absent sort class added."""
    # only a class of two or more members can lose or change one of them
    keys = sorted(a for a in md if len(set(a)) > 1)
    dropped = dict(md)
    del dropped[rng.choice(keys)]
    changed = dict(md)
    changed[rng.choice(keys)] += rng.choice((-1, 1))
    n = sum(keys[0])
    absent = [lam for lam in comps.partitions(n)
              if len(set(lam)) > 1 and lam not in md]
    out = [dropped, changed]
    if absent:
        stray = dict(md)
        lam = rng.choice(absent)
        # the last rearrangement in lex order is lam itself: leave it out
        stray[rng.choice(list(comps.rearrangements(lam))[:-1])] = rng.randint(1, 3)
        out.append(stray)
    return [core.Element(core.QSYM, {("M", a): c for a, c in p.items()}) for p in out]


def test_schur_detect_matches_the_enumerating_route():
    import random

    rng = random.Random(20240505)
    for _ in range(120):
        n = rng.randint(1, 7)
        cs = comps.compositions(n)
        # a seeded M/F element, mostly not symmetric
        f = sum((rng.choice((-3, -1, 1, 2)) * term(rng.choice("MF"), rng.choice(cs))
                 for _ in range(rng.randint(1, 5))), core.zero(core.QSYM))
        assert sl.schur_detect(f) == _schur_detect_by_enumeration(f), f
        # a seeded symmetric element, then three ways to break its symmetry
        ps = comps.partitions(n)
        x = sl.SymElement(rng.choice("smh"), {lam: rng.choice((-2, 1, 3))
                                              for lam in rng.sample(ps, rng.randint(1, len(ps)))})
        g = x.to_qsym()
        assert sl.schur_detect(g) == _schur_detect_by_enumeration(g) == x.to_basis("s")
        if any(len(set(a)) > 1 for _, a in g.terms):
            for broken in _symmetric_perturbations(g.canonical_dict(), rng):
                assert sl.schur_detect(broken) is None, broken
                assert _schur_detect_by_enumeration(broken) is None, broken


def _schur_detect_two_loops(f):
    """The earlier one-class-at-a-time schur_detect, kept as the reference:
    one loop reads the coefficient at each partition, a second sorts every
    index again to compare and count the members of its class."""
    md = f.canonical_dict()
    by_partition = {}
    for comp, c in md.items():
        lam = comps.sort_to_partition(comp)
        if comp == lam:
            by_partition[lam] = c
    members = {}
    for comp, c in md.items():
        lam = comps.sort_to_partition(comp)
        if by_partition.get(lam, 0) != c:
            return None
        members[lam] = members.get(lam, 0) + 1
    if any(members[lam] != comps.rearrangement_count(lam) for lam in by_partition):
        return None
    return sl.SymElement("m", by_partition).to_basis("s")


def _sym_product_by_detection(x, y):
    """The earlier Sym product, kept as the reference: the QSym product read
    back by detecting its symmetry."""
    detected = _schur_detect_two_loops(multiply(x.to_qsym(), y.to_qsym()))
    assert detected is not None
    return detected


def test_sym_products_match_the_detecting_route():
    def check(x, y):
        got, want = x * y, _sym_product_by_detection(x, y)
        assert (got.basis, got.coeffs) == ("s", want.coeffs), (x, y)

    def basis_terms(top):
        for n in range(top + 1):
            for lam in comps.partitions(n):
                for basis in "mhs":
                    yield sl.SymElement(basis, {lam: 1})

    pairs = 0
    for x in basis_terms(7):
        for y in basis_terms(7 - sum(next(iter(x.coeffs)))):
            check(x, -2 * y)
            pairs += 1
    assert pairs == 9 * 249  # the (mu, nu) pairs with |mu| + |nu| <= 7, in m, h, s each
    zero = sl.SymElement("s")
    mixed = [sl.SymElement("s", {(2, 1): 1, (3,): -1, (1,): 2, (): 3}),
             sl.SymElement("m", {(1, 1): -2, (2, 2): 1, (4,): 5}),
             sl.SymElement("h", {(): -1, (3, 1, 1): 2, (2,): 1})]
    for x in [zero, sl.SymElement("s", {(): 1}), sl.SymElement("h", {(): -2})] + mixed:
        for y in [zero, sl.SymElement("m", {(): 1}), sl.SymElement("s", {(2, 1): -2})] + mixed:
            check(x, y)
    assert (zero * mixed[0]).is_zero() and (mixed[1] * zero).is_zero()


def test_schur_detect_matches_the_two_loop_route():
    for n in range(7):
        for alpha in comps.compositions(n):
            for tok in ("sh*", "fsh*", "bsh*", "M", "F"):
                f = term(tok, alpha)
                assert sl.schur_detect(f) == _schur_detect_two_loops(f), f
    # symmetric sums in M, then each way of dropping one rearrangement of a
    # class with two or more members or changing its coefficient
    broken_cases = 0
    for n in range(1, 7):
        for lam in comps.partitions(n):
            for basis in "msh":
                md = sl.SymElement(basis, {lam: 1, (n,): -2}).to_qsym().canonical_dict()
                f = core.Element(core.QSYM, {("M", a): c for a, c in md.items()})
                assert sl.schur_detect(f) == _schur_detect_two_loops(f) is not None, f
                for a in md:
                    if len(set(a)) == 1:
                        continue
                    dropped = {b: c for b, c in md.items() if b != a}
                    changed = {**md, a: md[a] + 1}
                    for broken in (dropped, changed):
                        g = core.Element(core.QSYM, {("M", b): c for b, c in broken.items()})
                        assert sl.schur_detect(g) is None, g
                        assert _schur_detect_two_loops(g) is None, g
                        broken_cases += 1
    assert broken_cases > 1000


def test_sym_products_call_no_detector(monkeypatch):
    """A Sym product is symmetric by construction, so it reads its
    m-coefficients off the QSym product and never asks schur_detect."""
    h_times_m = (sl.SymElement("h", {(2, 1): 1}), sl.SymElement("m", {(2,): -2, (1,): 1}))
    want = _sym_product_by_detection(*h_times_m)

    def refuse(*args, **kwargs):
        raise AssertionError("a Sym product called schur_detect")

    monkeypatch.setattr(sl, "schur_detect", refuse)
    assert sl.littlewood_richardson((2, 1), (2, 1)) == {
        (2, 2, 1, 1): 1, (2, 2, 2): 1, (3, 1, 1, 1): 1,
        (3, 2, 1): 2, (3, 3): 1, (4, 1, 1): 1, (4, 2): 1,
    }
    assert h_times_m[0] * h_times_m[1] == want


def test_chain_kostka_matrix_matches_count_k():
    for n in range(10):
        ps = comps.partitions(n)
        assert sl.kostka_matrix(n) == tuple(
            tuple(tab.count_K("shin", lam, mu) for mu in ps) for lam in ps), n


def test_sym_bridge_enumerates_no_permutation_and_no_tableau(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("permutations or tableaux enumerated on the Sym path")

    monkeypatch.setattr(sl, "permutations", refuse, raising=False)
    monkeypatch.setattr(tab, "_backtrack", refuse)
    sl.kostka_matrix.cache_clear()
    sl._sym_line.cache_clear()
    try:
        for n in range(1, 10):
            for lam in comps.partitions(n):
                s_lam = sl.SymElement("s", {lam: 1})
                assert sl.schur_detect(s_lam.to_qsym()) == s_lam, lam
            # e_k e_(n-k) = sum of s over the shapes (2^j, 1^(n-2j))
            for k in range(1, n):
                want = {(2,) * j + (1,) * (n - 2 * j): 1 for j in range(min(k, n - k) + 1)}
                assert sl.littlewood_richardson((1,) * k, (1,) * (n - k)) == want, (n, k)
            if n > 3:
                # Pieri: s_21 h_(n-3) sums s_lam over lam/(2,1) a horizontal strip
                want = {}
                for lam in comps.partitions(n):
                    a, b, c, d = (lam + (0,) * 4)[:4]
                    if a >= 2 and 1 <= b <= 2 and c <= 1 and d == 0:
                        want[lam] = 1
                assert sl.littlewood_richardson((2, 1), (n - 3,)) == want, n
    finally:
        monkeypatch.undo()
        sl.kostka_matrix.cache_clear()
        sl._sym_line.cache_clear()


def _s_to_h_by_fractions(coeffs):
    """Reference s -> h: forward substitution against the Kostka matrix
    over Fraction, dividing by the diagonal (sum_mu K[lam][mu] d_mu = c_lam)."""
    from fractions import Fraction

    out = {}
    by_degree = {}
    for lam, c in coeffs.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for n, piece in by_degree.items():
        ps = comps.partitions(n)
        kost = sl.kostka_matrix(n)
        c = [Fraction(piece.get(lam, 0)) for lam in ps]
        d = [Fraction(0)] * len(ps)
        for i in range(len(ps)):
            d[i] = (c[i] - sum(kost[i][k] * d[k] for k in range(i))) / kost[i][i]
        for i in range(len(ps)):
            assert sum(kost[i][k] * d[k] for k in range(len(ps))) == c[i]
        for i, mu in enumerate(ps):
            if d[i]:
                assert d[i].denominator == 1
                out[mu] = int(d[i])
    return out


def test_s_and_m_to_h_round_trip_and_match_the_fraction_route():
    import random

    rng = random.Random(20240506)
    for n in range(9):
        ps = comps.partitions(n)
        for _ in range(4):
            coeffs = {lam: rng.choice((-5, -2, -1, 1, 3, 7))
                      for lam in rng.sample(ps, rng.randint(1, len(ps)))}
            if n > 1:
                coeffs[rng.choice(comps.partitions(rng.randrange(1, n)))] = rng.randint(1, 4)
            h, s, m = (sl.SymElement(b, coeffs) for b in "hsm")
            assert h.to_basis("s").to_basis("h") == h
            assert s.to_basis("h").to_basis("s") == s
            assert m.to_basis("h").to_basis("m") == m
            got = sl._s_to_h(coeffs)
            assert got == _s_to_h_by_fractions(coeffs), (n, coeffs)
            assert all(type(v) is int for v in got.values())
            assert m.to_basis("h").coeffs == _s_to_h_by_fractions(
                _m_to_s_by_fractions(coeffs))


def _kostka_solve(column):
    """The earlier m -> s (rows) and s -> h (columns) route, kept as the
    reference: given a, find d with sum_i d_i line_i = a, where line_i is
    row or column i of the Kostka matrix.  K is unitriangular, lower in the
    partition order, so d comes by peeling: walk the partitions down (rows)
    or up (columns), and at each lam still in a set d_lam = a_lam and
    subtract a_lam * line_lam."""
    def solve(coeffs):
        out, by_degree = {}, {}
        for lam, c in coeffs.items():
            by_degree.setdefault(sum(lam), {})[lam] = c
        for n, a in by_degree.items():
            ps = comps.partitions(n)
            kost = sl.kostka_matrix(n)
            lines = tuple(zip(*kost)) if column else kost
            for i in (range(len(ps)) if column else reversed(range(len(ps)))):
                c = a.get(ps[i])
                if not c:
                    continue
                line = lines[i]
                assert line[i] == 1 and not any(line[:i] if column else line[i + 1:])
                out[ps[i]] = c
                for mu, v in zip(ps, line):
                    if v:
                        a[mu] = a.get(mu, 0) - c * v
        return out

    return solve


def test_kostka_inverse_matches_the_peel():
    import random

    peel = {"m -> s": (sl._m_to_s, _kostka_solve(False)),
            "s -> h": (sl._s_to_h, _kostka_solve(True))}
    rng = random.Random(20261018)
    for n in range(15):
        ps = comps.partitions(n)
        inputs = [{lam: 1} for lam in ps]
        for _ in range(3):
            coeffs = {lam: rng.choice((-4, -1, 1, 2, 5))
                      for lam in rng.sample(ps, rng.randint(1, len(ps)))}
            if n > 1:
                coeffs[rng.choice(comps.partitions(rng.randrange(1, n)))] = rng.randint(1, 4)
            inputs.append(coeffs)
        for label, (got, want) in peel.items():
            for coeffs in inputs:
                assert got(coeffs) == want(dict(coeffs)), (label, coeffs)


def test_production_inverts_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was inverted in production")

    caches = (sl._kappa_inverse, sl._kostka_inverse, sl._sym_line, core._expand,
              core._unexpand, core._across, core.transition_matrix)
    monkeypatch.setattr(core, "exact_inverse", refuse)
    for cached in caches:
        cached.cache_clear()
    try:
        for tok in core.bases():
            canonical = core.CANONICAL[core.algebra_of(tok)]
            for n in range(9):
                core.transition_matrix(tok, canonical, n)
                core.transition_matrix(canonical, tok, n)
        for n in range(13):
            for lam in comps.partitions(n):
                for source in "mhs":
                    for target in "mhs":
                        sl.SymElement(source, {lam: 1}).to_basis(target)
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()


def test_the_antipode_builds_no_product_of_transition_matrices(monkeypatch):
    """S(X_a) reindexes into its omega partner P and reads one line of P in X
    per index (`core._across`); a whole-degree T(P -> X) would hold a
    product matrix to answer one term."""
    def refuse(*args):
        raise AssertionError("a product of transition matrices was built")

    monkeypatch.setattr(core, "_product", refuse)
    _clear_conversion_caches()
    try:
        for tok in tuple(sl.NSYM_TOKEN.values()) + tuple(sl.QSYM_TOKEN.values()):
            x = term(tok, (2, 1, 3, 1, 2))
            assert dict(antipode(x).terms) == dict(
                _loop_involution_route("omega", x, True, tok).terms), tok
    finally:
        monkeypatch.undo()
        _clear_conversion_caches()


def test_sym_inverse_reads_no_kostka_matrix(monkeypatch):
    def refuse(n):
        raise AssertionError("the Kostka matrix was read to invert it")

    want = {(n, column): {lam: _kostka_solve(column)({lam: 1}) for lam in comps.partitions(n)}
            for n in range(10) for column in (False, True)}
    monkeypatch.setattr(sl, "kostka_matrix", refuse)
    sl._kostka_inverse.cache_clear()
    sl._sym_line.cache_clear()
    try:
        for (n, column), lines in want.items():
            solve = sl._s_to_h if column else sl._m_to_s
            for lam, line in lines.items():
                assert solve({lam: 1}) == line, (n, column, lam)
    finally:
        monkeypatch.undo()
        sl._kostka_inverse.cache_clear()
        sl._sym_line.cache_clear()


def test_sym_elimination_stays_on_partitions(monkeypatch):
    # chi(sh_beta) is 0 off partitions, so dropping the partition filter
    # gives the same matrix; what the filter buys is that no composition
    # is eliminated (degree 14 on a 2-vCPU VM: 0.03 s, against 1.2 s without it)
    true_strips = tab.strip_extensions
    seen = set()

    def recording(alpha, r):
        seen.add(tuple(alpha))
        return true_strips(alpha, r)

    monkeypatch.setattr(tab, "strip_extensions", recording)
    sl._kostka_inverse.cache_clear()
    try:
        sl._kostka_inverse(9)
    finally:
        monkeypatch.undo()
        sl._kostka_inverse.cache_clear()
    assert seen and all(comps.is_partition(alpha) for alpha in seen), sorted(seen)


def test_sym_lines_match_the_dense_kostka_lines():
    """Each memoised line of the Sym bridge (h -> s and s -> h walked on their
    own, s -> m and m -> s read off rows) is the dense `MatrixLines` line of
    the Kostka matrix or its inverse, for every partition through degree 14."""
    dense = {("h", "s"): (sl.kostka_matrix, True), ("s", "h"): (sl._kostka_inverse, True),
             ("s", "m"): (sl.kostka_matrix, False), ("m", "s"): (sl._kostka_inverse, False)}
    sl._sym_line.cache_clear()
    try:
        for (source, target), (matrix, column) in dense.items():
            lines = core.MatrixLines(matrix, comps.partitions, column)
            for n in range(15):
                for lam in comps.partitions(n):
                    want = tuple(sorted(lines(lam).items()))
                    assert sl._sym_line(source, target, lam) == want, (source, target, lam)
    finally:
        sl._sym_line.cache_clear()


def test_h_and_s_convert_past_the_kostka_budget_without_a_matrix(monkeypatch):
    top = comps.MAX_KOSTKA_DEGREE

    def in_budget(matrix):
        def read(n):
            assert n <= top, f"{matrix.__name__}({n}) was asked past the budget"
            return matrix(n)
        return read

    for name in ("kostka_matrix", "_kostka_inverse"):
        monkeypatch.setattr(sl, name, in_budget(getattr(sl, name)))
    sl._sym_line.cache_clear()
    try:
        h24 = sl.forgetful_chi(term("H", (24,)))
        assert h24.to_basis("s") == sl.SymElement("s", {(24,): 1})
        assert sl.SymElement("s", {(12, 12): 1}).to_basis("h").coeffs == {
            (12, 12): 1, (13, 11): -1}
        # h_(12,12) in s: one Kostka column, s_(12+k, 12-k) for k = 0..12
        assert sl.SymElement("h", {(12, 12): 1}).to_basis("s").coeffs == {
            (12 + k, 12 - k) if k < 12 else (24,): 1 for k in range(13)}
    finally:
        monkeypatch.undo()
        sl._sym_line.cache_clear()
    # m <-> s reads whole matrices, so past the budget it is refused
    for source, target in (("s", "m"), ("m", "s"), ("m", "h"), ("h", "m")):
        with pytest.raises(ValueError, match="past the dense-matrix budget"):
            sl.SymElement(source, {(top - 9, 10): 1}).to_basis(target)


def test_a_sym_product_past_the_kostka_budget_is_refused_before_qsym_multiplies(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QSym multiplied past the budget")

    monkeypatch.setattr(sl, "multiply", refuse)
    top = comps.MAX_KOSTKA_DEGREE
    with pytest.raises(ValueError, match=f"Kostka matrices .* stop at degree {top}"):
        sl.littlewood_richardson((top,), (1,))
    with pytest.raises(ValueError, match="past the dense-matrix budget"):
        sl.SymElement("h", {(1,): 1, (top - 1,): 2}) * sl.SymElement("m", {(2,): 1})
