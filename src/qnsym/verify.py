"""Named identity suites, runnable from the CLI or from the test suite.

Each checker is a generator over every instance of an identity up to a
degree bound: an exhaustive, deterministic sweep, with nothing drawn at
random.  It yields one outcome per case, None where the identity held and
a reproducer string where it failed.  `verify` refuses a degree past the
dense-matrix budget before any sweep starts, then gathers the outcomes into
a VerifyReport: how many cases ran, and the reproducers in order (an empty
tuple means the identity held everywhere).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import compositions as comps
from . import core
from . import schurlike as sl
from . import tableaux as tab
from .core import antipode, coproduct, involution, multiply, pair, term


class VerifyReport(NamedTuple):
    identity: str
    max_degree: int
    cases: int
    failures: tuple
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _comps_through(n):
    for m in range(n + 1):
        yield from comps.compositions(m)


def _first_difference(got, want):
    """The first (i, j) where two matrices differ, or (None, None)."""
    return next(((i, j) for i, row in enumerate(got) for j, v in enumerate(row)
                 if v != want[i][j]), (None, None))


# ---------------------------------------------------------------------------

DUAL_PAIRS = (("H", "M"), ("R", "F"), ("sh", "sh*"),
              ("rsh", "rsh*"), ("fsh", "fsh*"), ("bsh", "bsh*"))


def check_duality(max_degree):
    for ntok, qtok in DUAL_PAIRS:
        for n in range(max_degree + 1):
            cs = comps.compositions(n)
            for a in cs:
                for b in cs:
                    got = pair(term(ntok, a), term(qtok, b))
                    yield (None if got == (1 if a == b else 0)
                           else f"pair({ntok}{list(a)}, {qtok}{list(b)}) = {got}")


# Two oracles for the involutions and the antipode in `core`.  On the ribbon
# basis R of NSym and the fundamental basis F of QSym each involution
# reindexes, by complement, reversal or transpose; the carrier route
# converts an element of any other basis to R or F and reindexes it there.
# `core` reindexes R and F by those same maps, so R and F inputs are checked
# against the canonical route instead (`core._involute`: the closed forms of
# `core._image` on H and M), which shares no reindexing with production.
_CARRIER = {core.NSYM: "R", core.QSYM: "F"}
_INDEX_MAP = {"psi": comps.complement, "rho": comps.reverse, "omega": comps.transpose}


def on_carrier(name, x, signed=False):
    """The image of x under the involution `name`, with the sign
    (-1)^degree if `signed` (the antipode is signed omega), computed by
    converting x to its carrier and reindexing each term there."""
    carrier = _CARRIER[x.algebra]
    return core.Element._of(x.algebra, {
        (carrier, _INDEX_MAP[name](comp)): -coeff if signed and sum(comp) % 2 else coeff
        for (_, comp), coeff in x.convert(carrier).terms.items()})


def _on_canonical(name, x, signed=False):
    """The image by the canonical route, in x's basis."""
    return core._involute(x, name, signed, x.support_basis())


def check_involutions(max_degree):
    names = ("psi", "rho", "omega")

    # every basis element against the carrier route, R and F against the
    # canonical one
    for tok in core.bases():
        oracle, route = ((_on_canonical, "canonical") if tok in _CARRIER.values()
                         else (on_carrier, "carrier"))
        for n in range(max_degree + 1):
            for a in comps.compositions(n):
                x = term(tok, a)
                routes = [(name, involution(name, x), oracle(name, x)) for name in names]
                routes.append(("antipode", antipode(x), oracle("omega", x, signed=True)))
                for label, got, want in routes:
                    yield (None if got == want
                           else f"{label}({tok}{list(a)}) differs from the {route} route")

    # involutivity and the composition law, on both carrier bases
    for n in range(max_degree + 1):
        for a in comps.compositions(n):
            for tok in ("R", "F"):
                x = term(tok, a)
                for name in names:
                    yield (None if involution(name, involution(name, x)) == x
                           else f"{name}^2({tok}{list(a)}) != id")
                omega = involution("omega", x)
                yield (None if omega == involution("psi", involution("rho", x))
                       and omega == involution("rho", involution("psi", x))
                       else f"omega != psi.rho on {tok}{list(a)}")

    # multiplicativity / anti-multiplicativity on every pair of nonempty
    # indices whose product fits the degree bound (none below degree 2)
    for a in filter(None, _comps_through(max_degree - 1)):
        for b in filter(None, _comps_through(max_degree - sum(a))):
            x, y = term("H", a), term("R", b)
            f, g = term("M", a), term("F", b)
            for name, anti in (("psi", False), ("rho", True), ("omega", True)):
                lhs = involution(name, multiply(x, y))
                rhs = (multiply(involution(name, y), involution(name, x)) if anti
                       else multiply(involution(name, x), involution(name, y)))
                yield (None if lhs == rhs
                       else f"{name} product law fails on H{list(a)}, R{list(b)}")
                # all three are plain automorphisms on the quasisymmetric side
                yield (None if involution(name, multiply(f, g)) == multiply(
                           involution(name, f), involution(name, g))
                       else f"{name} product law fails on M{list(a)}, F{list(b)}")

    # duality invariance: <inv(h), inv(f)> = <h, f>
    for a in _comps_through(max_degree):
        x, f = term("H", a), term("M", a)
        for name in names:
            yield (None if pair(involution(name, x), involution(name, f)) == pair(x, f)
                   else f"{name} breaks the pairing on H{list(a)}, M{list(a)}")

    # the eight transport identities on the Schur-like bases
    for n in range(max_degree + 1):
        for a in comps.compositions(n):
            r = comps.reverse(a)
            checks = (
                (involution("psi", term("sh", a)), term("rsh", a), "psi(sh)"),
                (involution("rho", term("sh", a)), term("fsh", r), "rho(sh)"),
                (involution("omega", term("sh", a)), term("bsh", r), "omega(sh)"),
                (involution("psi", term("sh*", a)), term("rsh*", a), "psi(sh*)"),
                (involution("rho", term("sh*", a)), term("fsh*", r), "rho(sh*)"),
                (involution("omega", term("sh*", a)), term("bsh*", r), "omega(sh*)"),
            )
            for got, want, label in checks:
                yield None if got == want else f"{label} transport fails at {list(a)}"
    for outer, inner in (((1, 3, 2), (1, 2)), ((2, 3), (2,)), ((2, 2), (1, 1)),
                         ((1, 2, 4), (1, 2))):
        if sum(outer) > max_degree:
            continue
        s = sl.skew("sh", outer, inner)
        ro, ri = comps.reverse(outer), comps.reverse(inner)
        yield (None if involution("rho", s) == sl.skew_ii("fsh", ro, ri)
               else f"rho skew transport fails at {outer}/{inner}")
        yield (None if involution("omega", s) == sl.skew_ii("bsh", ro, ri)
               else f"omega skew transport fails at {outer}/{inner}")


def check_jt_vs_pieri(max_degree):
    """The oracle triangle: matrix inversion, Pieri elimination, and the
    Jacobi-Trudi expansion by the creation operators must agree on strictly
    increasing indices.
    The Pieri leg is production: the registered sh -> H reads its columns.
    The matrix leg inverts K counted by backtracking over tableaux, so that
    it shares no code with the strip extensions behind the Pieri leg; the
    registered sh -> H must match it too."""
    for n in range(1, max_degree + 1):
        cs = comps.compositions(n)
        inverse = core.exact_inverse(tab.count_matrix("shin", cs))
        for j, beta in enumerate(cs):
            if not all(x < y for x, y in zip(beta, beta[1:])):
                continue
            via_matrix = core.Element(core.NSYM, {
                ("H", alpha): row[j] for alpha, row in zip(cs, inverse)})
            via_pieri = sl.pieri_elimination(beta)
            via_jt = sl.jacobi_trudi("sh", beta)
            yield (None if via_matrix == via_pieri
                   else f"matrix vs pieri route differ at sh{list(beta)}")
            yield (None if via_pieri == via_jt
                   else f"pieri vs jacobi-trudi route differ at sh{list(beta)}")
            yield (None if term("sh", beta).convert("H") == via_matrix
                   else f"registered sh -> H differs from the matrix route "
                        f"at sh{list(beta)}")


def check_antipode_shin(max_degree):
    one = core.one(core.NSYM)
    for n in range(1, max_degree + 1):
        # antipode axiom on H_n: both convolutions kill it (counit is 0)
        left = core.zero(core.NSYM)
        right = core.zero(core.NSYM)
        for k in range(n + 1):
            hk = term("H", (k,)) if k else one
            hnk = term("H", (n - k,)) if n - k else one
            left = left + multiply(antipode(hk), hnk)
            right = right + multiply(hk, antipode(hnk))
        yield None if left.is_zero() else f"(S*id) convolution on H[{n}] = {left}"
        yield None if right.is_zero() else f"(id*S) convolution on H[{n}] = {right}"
    for n in range(max_degree + 1):
        sign = (-1) ** n
        for a in comps.compositions(n):
            yield (None if antipode(term("sh", a), basis="bsh") == sign * term(
                       "bsh", comps.reverse(a))
                   else f"S(sh{list(a)}) != (-1)^{n} bsh{list(comps.reverse(a))}")


def check_coproducts(max_degree):
    for family, qtok in sl.QSYM_TOKEN.items():
        for alpha in _comps_through(max_degree):
            want = coproduct(term(qtok, alpha)).convert("M", "M")
            for variant in ("skew", "skew2"):
                got = sl.coproduct_formula(family, alpha, variant)
                yield (None if got.convert("M", "M") == want
                       else f"coproduct formula ({variant}) fails at {qtok}{list(alpha)}")


def check_schur_bridge(max_degree):
    for n in range(1, max_degree + 1):
        for a in comps.compositions(n):
            image = sl.forgetful_chi(term("sh", a))
            if comps.is_partition(a):
                yield (None if image == sl.SymElement("s", {a: 1})
                       else f"chi(sh{list(a)}) != s{list(a)}")
            else:
                yield (None if image.to_basis("m").is_zero()
                       else f"chi(sh{list(a)}) != 0 for non-partition")
        for lam in comps.partitions(n):
            rev = comps.reverse(lam)
            s_lam = sl.SymElement("s", {lam: 1})
            yield (None if sl.schur_detect(term("sh*", lam)) == s_lam
                   else f"sh*{list(lam)} is not s{list(lam)}")
            yield (None if sl.schur_detect(term("fsh*", rev)) == s_lam
                   else f"fsh*{list(rev)} is not s{list(lam)}")
            yield (None if sl.schur_detect(term("bsh*", rev)) == sl.SymElement(
                       "s", {comps.conjugate(lam): 1})
                   else f"bsh*{list(rev)} is not the conjugate Schur function")
        # the strip-chain Kostka matrix against backtracking over fillings,
        # and its inverse by Pieri elimination against the inverse of that
        oracle = tab.count_matrix("shin", comps.partitions(n))
        yield (None if sl.kostka_matrix(n) == oracle
               else f"Kostka matrix at degree {n} differs from count_K")
        yield (None if sl._kostka_inverse(n) == core.exact_inverse(oracle)
               else f"inverse Kostka matrix at degree {n} differs from count_K's")
    # structure constants on partition indices = independently computed LR
    for total in range(2, max_degree + 1):
        for k in range(1, total):
            for mu in comps.partitions(k):
                for nu in comps.partitions(total - k):
                    lr = sl.littlewood_richardson(mu, nu)
                    sc = {c.alpha: c.value for c in sl.structure_coeffs("sh", mu, nu)
                          if comps.is_partition(c.alpha)}
                    yield None if sc == lr else f"LR mismatch at s{list(mu)} * s{list(nu)}"


def check_tableaux(max_degree):
    for n in range(max_degree + 1):
        for alpha in comps.compositions(n):
            shape = tab.straight(alpha)
            shin = {t.rows for t in tab.enumerate_standard(shape, "shin")}
            rstrict = {t.rows for t in tab.enumerate_standard(shape, "row_strict")}
            flipped = {t.rows for t in tab.enumerate_standard(shape, "flipped")}
            backward = {t.rows for t in tab.enumerate_standard(shape, "backward")}
            yield (None if shin == rstrict
                   else f"standard sets differ (shin/row-strict) at {list(alpha)}")
            yield (None if flipped == backward
                   else f"standard sets differ (flipped/backward) at {list(alpha)}")
            for rows in shin:
                a = tab.descent_composition(tab.Tableau("shin", shape, rows))
                b = tab.descent_composition(tab.Tableau("row_strict", shape, rows))
                yield (None if b == comps.complement(a)
                       else f"descents not complementary at {rows}")
            # flip: descent-reversing bijection onto the reversed shape
            images = set()
            ralpha = comps.reverse(alpha)
            for t in tab.enumerate_standard(shape, "shin"):
                f = tab.flip(t)
                yield (None if f.shape.outer == ralpha and tab.validate(f)
                       and tab.descent_composition(f)
                       == comps.reverse(tab.descent_composition(t))
                       else f"flip misbehaves on {t.rows}")
                images.add(f.rows)
            target = {t.rows for t in
                      tab.enumerate_standard(tab.straight(ralpha), "flipped")}
            yield None if images == target else f"flip is not onto at {list(alpha)}"
            # reverse hooks are the only indices with a one-term F-expansion
            if n:
                is_rhook = all(p == 1 for p in alpha[:-1])
                yield (None if (term("sh*", alpha).convert("F") == term("F", alpha))
                       == is_rhook
                       else f"reverse-hook characterization fails at {list(alpha)}")
    # the shin matrix that builds the bases comes from strip chains: each
    # entry must equal the backtracking count
    for n in range(max_degree + 1):
        cs, kappa = comps.compositions(n), tab.kappa_matrix("shin", n)
        oracle = tab.count_matrix("shin", cs)
        i, j = _first_difference(kappa, oracle)
        yield (None if i is None
               else f"shin K[{list(cs[i])}][{list(cs[j])}] = {kappa[i][j]} from strip "
                    f"chains but {oracle[i][j]} by backtracking, degree {n}")
    # the other families' counts do not build their bases: each must equal
    # the shin matrix carried over by psi, rho or omega, read both ways
    for family in tab.FAMILIES[1:]:
        ntok, qtok = sl.NSYM_TOKEN[family], sl.QSYM_TOKEN[family]
        for n in range(max_degree + 1):
            cs, kappa = comps.compositions(n), tab.kappa_matrix(family, n)
            h_rows = core.transition_matrix("H", ntok, n).rows
            for label, moved in ((f"H -> {ntok}", tuple(zip(*h_rows))),
                                 (f"{qtok} -> M", core.transition_matrix(qtok, "M", n).rows)):
                i, j = _first_difference(kappa, moved)
                yield (None if i is None
                       else f"{family} K[{list(cs[i])}][{list(cs[j])}] = {kappa[i][j]} "
                            f"but transport ({label}) gives {moved[i][j]}, degree {n}")
    # the ribbon rule: X_alpha * R_beta (R_beta * X_alpha on the left side)
    # sums X_gamma times the number of standard tableaux of gamma/alpha
    # (bottom-aligned on the left side) whose descent composition is beta;
    # the paper's Pieri rules put flipped and backward on the left
    top = min(max_degree, 5)
    for family in tab.FAMILIES:
        shape_of = tab.skew2 if family in ("flipped", "backward") else tab.skew
        for alpha in _comps_through(top):
            for beta in _comps_through(top - sum(alpha)):
                want = {}
                for gamma in comps.compositions(sum(alpha) + sum(beta)):
                    try:
                        shape = shape_of(gamma, alpha)
                    except ValueError:  # alpha does not fit inside gamma
                        continue
                    if tab.is_chain_legal(shape):
                        want[sl.NSYM_TOKEN[family], gamma] = sum(
                            tab.descent_composition(t) == beta
                            for t in tab.enumerate_standard(shape, family))
                yield (None if sl.ribbon_multiply(family, alpha, beta)
                       == core.Element(core.NSYM, want)
                       else f"{family} ribbon rule fails at {list(alpha)}, R{list(beta)}")
    # chains in the strip poset count standard skew tableaux
    for n in range(1, max_degree + 1):
        for alpha in comps.compositions(n):
            for m in range(n + 1):
                for beta in comps.compositions(m):
                    chains = tab.maximal_chains(beta, alpha)
                    if not comps.dominated(beta, alpha):
                        expected = 0
                    else:
                        shape = tab.skew(alpha, beta) if beta else tab.straight(alpha)
                        expected = (len(tab.enumerate_standard(shape, "shin"))
                                    if tab.is_chain_legal(shape) else 0)
                    yield (None if len(chains) == expected
                           else f"chain count {len(chains)} != {expected} for "
                                f"{list(beta)} -> {list(alpha)}")


IDENTITIES = {
    "duality": (check_duality, 7),
    "involutions": (check_involutions, 6),
    "jt-vs-pieri": (check_jt_vs_pieri, 8),
    "antipode-shin": (check_antipode_shin, 6),
    "coproducts": (check_coproducts, 6),
    "schur-bridge": (check_schur_bridge, 7),
    "tableaux": (check_tableaux, 7),
}


def verify(identity: str, max_degree=None) -> VerifyReport:
    if identity not in IDENTITIES:
        raise KeyError(f"unknown identity {identity!r}; "
                       f"choose from {', '.join(sorted(IDENTITIES))}")
    checker, default_degree = IDENTITIES[identity]
    degree = comps.check_dense_degree(default_degree if max_degree is None else max_degree)
    start = time.perf_counter()
    outcomes = list(checker(degree))
    seconds = time.perf_counter() - start
    return VerifyReport(identity, degree, len(outcomes),
                        tuple(o for o in outcomes if o is not None), seconds)
