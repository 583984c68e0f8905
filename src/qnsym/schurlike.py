"""The four Schur-like dual basis pairs and the constructions built on them.

Each tableau family names an NSym basis (sh, rsh, fsh, bsh) and a dual
QSym basis (sh*, rsh*, fsh*, bsh*).  The shin pair comes from tableau
counts: with C the canonical composition list of degree n and K[i][j] the
number of shin tableaux of shape C[i] and type C[j],

    H_{C[j]}  = sum_i K[i][j] sh_{C[i]},      sh*_{C[i]} = sum_j K[i][j] M_{C[j]},

and K[i][j] is the number of chains of strips, of sizes C[j]_1, C[j]_2, ...,
that build C[i] (the right Pieri rule sh_a H_r = sum of sh over the strip
extensions of a by r boxes).  The same rule gives K^-1 with no solve: sh_a
is sh_prefix H_last minus sh over the prefix's other strip extensions
(Pieri elimination); kept on partitions, the chains and the elimination
give the Kostka matrix and its inverse.  The other pairs are registered as
its images under INVOLUTION: psi(sh_a) = rsh_a, rho(sh_a) = fsh_rev(a),
omega(sh_a) = bsh_rev(a), starred alike, which is all the registry needs to
derive the NSym bases' maps (bsh reads rsh's, reversed, as omega = rho psi);
each starred basis, the dual of its partner, reads its partner's matrices
with rows and columns swapped.  So every map reads K, K^-1 or one of their
two psi images in place.  Their own tableau
counts are the oracle of `verify tableaux`.  On top of the bases live the
Pieri rules, the beth creation operators, Jacobi-Trudi expansions (the
creation operators folded over the index), ribbon multiplication, skew and
skew-II functions, structure coefficients, coproduct formulas, and the
bridge to symmetric functions.
The Pieri, Jacobi-Trudi and ribbon routes work for sh and reach the other
families by `core.involution` under INVOLUTION alone; a ribbon product
walks the ribbon part by part, so no tableau or H-word is listed here.  Skew
and skew-II functions are the perp and right-perp operators of any family,
and the coproduct formulas, assembled from them, hold for all four dual
pairs.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import attrgetter
from typing import NamedTuple

from . import compositions as comps
from . import core
from . import tableaux as tab
from .core import NSYM, QSYM, Element, TensorElement, multiply, term

NSYM_TOKEN = {"shin": "sh", "row_strict": "rsh", "flipped": "fsh", "backward": "bsh"}
QSYM_TOKEN = {fam: tok + "*" for fam, tok in NSYM_TOKEN.items()}
FAMILY_OF_TOKEN = {tok: fam for fam, tok in NSYM_TOKEN.items()}

# the involution whose image of the shin pair is each family's pair:
# psi(sh_a) = rsh_a, rho(sh_a) = fsh_rev(a), omega(sh_a) = bsh_rev(a), starred alike
INVOLUTION = {"shin": None, "row_strict": "psi", "flipped": "rho", "backward": "omega"}


def family_name(family: str) -> str:
    """Accept either a family name or its NSym basis token."""
    if family in NSYM_TOKEN:
        return family
    if family in FAMILY_OF_TOKEN:
        return FAMILY_OF_TOKEN[family]
    raise ValueError(f"unknown family {family!r}")


def _at_sh(family: str, index) -> tuple:
    """(carry, base): `core.involution` by the family's involution (the
    identity for shin), which takes X_index to sh_base and back, a reindex."""
    name = INVOLUTION[family]
    carry = partial(core.involution, name) if name else (lambda x: x)
    (_, base), = carry(term(NSYM_TOKEN[family], index)).terms
    return carry, base


# ---------------------------------------------------------------------------
# basis registration

@lru_cache(maxsize=None)
def _kappa_inverse(n: int) -> tuple:
    """The inverse of the shin K at degree n: column b is sh_b in H, by
    Pieri elimination, so no matrix is inverted."""
    return _eliminated(comps.compositions(comps.check_dense_degree(n)), False)


def register_bases() -> None:
    """Install the eight Schur-like bases into the conversion registry: sh
    reads off the shin K (strip chains) and K^-1 (Pieri elimination), rsh,
    fsh and bsh are its images under INVOLUTION, from which the registry
    derives their maps and reindexes them, and each starred basis, the dual
    of its partner, reads its partner's matrices with rows and columns
    swapped (`core.dual_maps`), with its image kept for the reindex.  So
    every map reads K, K^-1, T(rsh -> H) or T(H -> rsh) in place; this
    order fixes the order terms print in."""
    if "sh" in core.bases():
        return

    def shin_kappa(n):  # looked up per call so that tab.kappa_matrix can be replaced
        return tab.kappa_matrix("shin", n)

    lines = partial(core.MatrixLines, indices=comps.compositions, column=True)
    core.register_basis("sh", NSYM, lines(_kappa_inverse), lines(shin_kappa))
    for family, name in INVOLUTION.items():
        tok, star = NSYM_TOKEN[family], QSYM_TOKEN[family]
        if name:
            core.register_basis(tok, NSYM, image=(name, "sh"))
        core.register_basis(star, QSYM, *core.dual_maps(tok), image=name and (name, "sh*"))


# ---------------------------------------------------------------------------
# Pieri rules and beth operators

def pieri(family: str, alpha, r: int) -> Element:
    """Multiply the family basis element by H_r or E_r on the family's side:
    the shin strip extensions of the carried index, carried back."""
    family = family_name(family)
    alpha = comps.check_composition(alpha)
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError("strip size must be an integer")
    if r < 0:
        raise ValueError("strip size must be nonnegative")
    carry, base = _at_sh(family, alpha)
    return carry(Element._of(NSYM, {("sh", beta): 1 for beta in tab.strip_extensions(base, r)}))


def beth(m: int, x: Element) -> Element:
    """The creation operator on NSym: on the H basis it prepends m and
    subtracts the word with m slipped behind the first part."""
    if not isinstance(m, int) or isinstance(m, bool) or m <= 0:
        raise ValueError("beth index must be a positive integer")
    if x.algebra != NSYM:
        raise ValueError("beth acts on NSym")

    def line(comp):
        if not comp:
            return ((("H", (m,)), 1),)
        return ((("H", (m,) + comp), 1), (("H", (comp[0], m) + comp[1:]), -1))

    return Element._of(NSYM, core.linear(x.canonical_dict(), line))


# ---------------------------------------------------------------------------
# Jacobi-Trudi

def jacobi_trudi(family: str, beta) -> Element:
    """Signed H- or E-word expansion of the family basis element: the shin
    expansion of the carried index, which must be strictly increasing (so
    beta is strictly increasing for sh and rsh, decreasing for fsh and
    bsh), carried back word by word.  The shin expansion is the creation
    operators folded over the index: sh_(m)+a = beth_m(sh_a) when
    0 < m < a_1, from sh_(last part) = H_(last part)."""
    family = family_name(family)
    beta = comps.check_composition(beta)
    carry, base = _at_sh(family, beta)
    if any(a >= b for a, b in zip(base, base[1:])):
        order = "decreasing" if INVOLUTION[family] in ("rho", "omega") else "increasing"
        raise ValueError(f"no determinant expansion for {beta}: the index must be strictly "
                         f"{order} (the (2,2,4) expansion cannot be written this way)")
    # the expansion has one word per restricted permutation, 2^(parts - 1)
    comps._check_listing(len(base) - 1, "restricted permutations", beta)
    x = term("H", base[-1:])
    for m in reversed(base[:-1]):
        x = beth(m, x)
    return carry(x)


def _pieri_elimination(alpha: tuple, sym: bool, memo: dict) -> tuple:
    """H-expansion of sh_alpha computed purely from the Pieri rule:
    sh_prefix * H_last expands as the sum over strip extensions, so
    sh_alpha is the product minus the other strips (each earlier in the
    (length, last part) order).  With `sym`, alpha is a partition and the
    same body gives s_alpha in h: chi(sh_beta) is s_beta for a partition
    beta and 0 otherwise, and the h's commute, so only partition
    extensions are kept and each word is sorted.  `memo` holds the
    expansions of one caller, which drops them when it returns."""
    if alpha in memo:
        return memo[alpha]
    if not alpha:
        return (((), 1),)
    prefix, r = alpha[:-1], alpha[-1]
    word = comps.sort_to_partition if sym else tuple
    acc = {}
    for comp, c in _pieri_elimination(prefix, sym, memo):
        key = word(comp + (r,))
        acc[key] = acc.get(key, 0) + c
    for beta in tab.strip_extensions(prefix, r):
        if beta == alpha or sym and not comps.is_partition(beta):
            continue
        for comp, c in _pieri_elimination(beta, sym, memo):
            acc[comp] = acc.get(comp, 0) - c
    memo[alpha] = tuple(sorted((k, v) for k, v in acc.items() if v))
    return memo[alpha]


def _eliminated(indices: tuple, sym: bool) -> tuple:
    """The inverse tableau-count matrix over `indices`: column b is the
    Pieri elimination of b."""
    memo = {}
    columns = [dict(_pieri_elimination(beta, sym, memo)) for beta in indices]
    return tuple(tuple(col.get(alpha, 0) for col in columns) for alpha in indices)


def pieri_elimination(alpha) -> Element:
    """sh_alpha in H, built only from strip extensions: the production
    route of sh -> H (`_kappa_inverse` reads its columns)."""
    alpha = comps.check_composition(alpha)
    return Element._of(NSYM, {("H", c): v for c, v in _pieri_elimination(alpha, False, {})})


# ---------------------------------------------------------------------------
# ribbon multiplication, skew functions, structure coefficients

def _ribbon_moves(part, merge, state):
    """`tab.strip_walk` moves from (mu, open part s): close s + part by the
    Pieri rule, or merge it into the next part, sign flipped."""
    mu, s = state
    s += part
    return [(nu, 0) for nu in tab.strip_extensions(mu, s)], [(mu, s)] if merge else ()


def ribbon_multiply(family: str, alpha, beta) -> Element:
    """The product of the family basis element with R_beta on the family's
    side: sh at the carried index times the carried R_gamma, carried back.
    R_gamma is the signed sum of H over gamma's coarsenings, so a
    `tab.strip_walk` over (shape, open part) states takes one step a part,
    closing the open part by the Pieri rule or merging it into the next."""
    family = family_name(family)
    alpha = comps.check_composition(alpha)
    beta = comps.check_composition(beta)
    carry, base = _at_sh(family, alpha)
    (_, gamma), = carry(term("R", beta)).terms
    what = f"{NSYM_TOKEN[family]}{list(alpha)} R{list(beta)}"
    states = {(base, 0): 1}
    for i, part in enumerate(gamma):
        states = tab.strip_walk(states, partial(_ribbon_moves, part, i < len(gamma) - 1), what)
    return carry(Element._of(NSYM, {("sh", mu): c for (mu, _), c in states.items()}))


def skew(family: str, outer, inner) -> Element:
    """The skew QSym function of the family, via the perp operator (total)."""
    family = family_name(family)
    outer = comps.check_composition(outer)
    inner = comps.check_composition(inner)
    return core.perp(term(NSYM_TOKEN[family], inner), term(QSYM_TOKEN[family], outer))


def skew_ii(family: str, outer, inner) -> Element:
    """The skew-II QSym function, via the right-perp operator (total)."""
    family = family_name(family)
    outer = comps.check_composition(outer)
    inner = comps.check_composition(inner)
    return core.rperp(term(NSYM_TOKEN[family], inner), term(QSYM_TOKEN[family], outer))


class StructureCoefficient(NamedTuple):
    alpha: tuple
    beta: tuple
    gamma: tuple
    value: int


def structure_coeffs(family: str, beta, gamma) -> tuple:
    """All nonzero coefficients of X_alpha in X_beta * X_gamma."""
    family = family_name(family)
    tok = NSYM_TOKEN[family]
    beta = comps.check_composition(beta)
    gamma = comps.check_composition(gamma)
    product = multiply(term(tok, beta), term(tok, gamma), basis=tok)
    return tuple(
        StructureCoefficient(comp, beta, gamma, coeff)
        for (_, comp), coeff in product.sorted_terms()
    )


def coproduct_formula(family: str, alpha, variant: str = "skew") -> TensorElement:
    """Assemble the coproduct of the family's starred basis element from
    skew (variant "skew") or skew-II (variant "skew2") pieces, summing over
    *all* inner compositions: Delta f = sum_beta X*_beta (x) X_beta^perp f
    holds for any dual pair (X, X*), and its mirror with the right perp."""
    family = family_name(family)
    if variant not in ("skew", "skew2"):
        raise ValueError(f"unknown variant {variant!r}")
    alpha = comps.check_composition(alpha)
    qtok = QSYM_TOKEN[family]
    # skew-II is the rho-mirror of skew: put the piece on the left leg
    mirrored = variant == "skew2"
    peel = skew_ii if mirrored else skew
    terms = {}
    for m in range(sum(alpha) + 1):
        for beta in comps.compositions(m):
            for (_, gamma), c in peel(family, alpha, beta).terms.items():
                legs = ((qtok, beta), ("M", gamma))
                key = legs[::-1] if mirrored else legs
                terms[key] = terms.get(key, 0) + c
    return TensorElement._of(QSYM, terms)


# ---------------------------------------------------------------------------
# the symmetric subspace: m / h / s expansions inside QSym

def _check_sym_basis(basis):
    if basis not in ("m", "h", "s"):
        raise ValueError(f"unknown Sym basis {basis!r}")


def _check_partition(basis, lam):
    lam = comps.check_composition(lam)
    if not comps.is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


class SymElement(core._Combination):
    """An integer combination of m, h, or s symmetric functions, indexed by
    partitions, realized when needed as the symmetric subspace of QSym."""

    __slots__ = ()
    _SPACE = "basis"
    basis = property(attrgetter("_space"))
    coeffs = core._Combination.terms
    _check_space = staticmethod(_check_sym_basis)
    _check_key = staticmethod(_check_partition)

    @staticmethod
    def _sort_key(lam):
        return (sum(lam), lam)

    def _label(self, lam):
        return core.format_index(self._space, lam)

    @staticmethod
    def _json_key(lam):
        return {"index": list(lam)}

    def _canonical(self):
        return self.to_basis("s")._terms

    def _product(self, other):
        """The product, through QSym (Sym is a subring).  It is symmetric, and
        m_lam sums M over lam's rearrangements, so its m_lam coefficient is its
        M_lam one: read at the partitions of each degree present, not checked.
        Its top degree is refused past the Kostka budget before QSym multiplies."""
        if self._terms and other._terms:
            _kostka_degree(self._top_degree() + other._top_degree())
        md = multiply(self.to_qsym(), other.to_qsym()).canonical_dict()
        degrees = {sum(alpha) for alpha in md}
        m = {lam: md[lam] for n in degrees for lam in comps.partitions(n) if lam in md}
        return SymElement._of("m", m).to_basis("s")

    def _top_degree(self) -> int:
        return max(map(sum, self._terms), default=0)

    def to_basis(self, target: str) -> "SymElement":
        """Convert through s: source -> s -> target, one memoised line a term
        (`_sym_line`); m <-> s is refused past the Kostka budget first."""
        if target == self._space:
            return self
        if target not in ("m", "h", "s"):
            raise ValueError(f"no conversion from {self._space} to {target}")
        if "m" in (self._space, target):
            _kostka_degree(self._top_degree())
        coeffs = self._terms
        for source, to in ((self._space, "s"), ("s", target)):
            if source != to:
                coeffs = _sym_map(source, to, coeffs)
        return SymElement._of(target, coeffs)

    def to_qsym(self) -> Element:
        """The M-expansion: m_lam is the sum of M over the distinct
        rearrangements of lam, each written once."""
        return Element._of(QSYM, {("M", alpha): c
                                  for lam, c in self.to_basis("m")._terms.items()
                                  for alpha in comps.rearrangements(lam)})


def _kostka_degree(n: int) -> int:
    """Return n, insisting the Kostka matrices of degree n are in budget."""
    return comps.check_dense_degree(n, comps.MAX_KOSTKA_DEGREE, "Kostka matrices (Sym m <-> s)")


@lru_cache(maxsize=None)
def kostka_matrix(n: int) -> tuple:
    """K[i][j] = #SSYT of shape lambda_i and weight mu_j over partitions(n),
    refused past comps.MAX_KOSTKA_DEGREE.

    On a partition shape an SSYT is a shin tableau, its entries up to each
    value fill a partition, and between two partitions a shin strip is a
    horizontal strip.  So column mu counts the shin strip chains of mu kept
    on partition shapes (`tab.chain_matrix`, which also builds the shin K);
    `tab.count_matrix`, which backtracks over fillings, is the oracle.
    """
    return tab.chain_matrix(comps.partitions(_kostka_degree(n)), comps.is_partition)


@lru_cache(maxsize=None)
def _kostka_inverse(n: int) -> tuple:
    """The inverse Kostka matrix over partitions(n): column lam is s_lam in
    h, by Pieri elimination kept on partitions; refused past
    comps.MAX_KOSTKA_DEGREE."""
    return _eliminated(comps.partitions(_kostka_degree(n)), True)


# One line per partition for each Sym map: h -> s is one column of K, the
# strip chains of rho kept on partitions, and s -> h one column of K^-1, a
# Pieri elimination, each walked on its own at any degree; s -> m and m -> s
# are rows of K and K^-1, which stay dense (and so in budget).  The matrices
# are looked up per call, so that either can be replaced.
_SYM_LINES = {
    ("h", "s"): lambda rho: next(tab.strip_chains((), [rho], comps.is_partition))[1].items(),
    ("s", "h"): lambda lam: _pieri_elimination(lam, True, {}),
    ("s", "m"): lambda lam: core.MatrixLines(kostka_matrix, comps.partitions, False)(lam).items(),
    ("m", "s"): lambda lam: core.MatrixLines(_kostka_inverse, comps.partitions, False)(lam).items(),
}


@lru_cache(maxsize=None)
def _sym_line(source: str, target: str, lam: tuple) -> tuple:
    """source_lam in target, sorted: memoised as `core._expand` is."""
    return tuple(sorted(_SYM_LINES[source, target](lam)))


def _sym_map(source: str, target: str, coeffs: dict) -> dict:
    return core.linear(coeffs, partial(_sym_line, source, target))


_h_to_s, _s_to_h, _s_to_m, _m_to_s = (partial(_sym_map, *pair) for pair in _SYM_LINES)


def forgetful_chi(x: Element) -> SymElement:
    """The projection of NSym onto Sym sending H_alpha to h_{sort(alpha)}."""
    if x.algebra != NSYM:
        raise ValueError("the forgetful map acts on NSym")
    return SymElement._of("h", core.linear(
        x.canonical_dict(), lambda comp: ((comps.sort_to_partition(comp), 1),)))


def schur_detect(f: Element):
    """Return the s-expansion of f if it is symmetric, else None.

    f is symmetric when its M-coefficients are constant on sort classes,
    rearrangements absent from f included.  One pass sorts each index once,
    stopping at a coefficient unlike its class's; then each class must have
    all `comps.rearrangement_count(lam)` members, counted, not listed.
    """
    if f.algebra != QSYM:
        raise ValueError("schur_detect acts on QSym")
    classes = {}
    for comp, c in f.canonical_dict().items():
        seen = classes.setdefault(comps.sort_to_partition(comp), [c, 0])
        if seen[0] != c:
            return None
        seen[1] += 1
    if any(k != comps.rearrangement_count(lam) for lam, (_, k) in classes.items()):
        return None
    return SymElement._of("m", {lam: c for lam, (c, _) in classes.items()}).to_basis("s")


def littlewood_richardson(mu, nu) -> dict:
    """LR coefficients: the Schur terms of s_mu * s_nu, which multiplies
    through the QSym embedding and reads the m-coefficients off the
    partition indices of the product (`SymElement._product`)."""
    return dict((SymElement("s", {tuple(mu): 1}) * SymElement("s", {tuple(nu): 1})).coeffs)


register_bases()
