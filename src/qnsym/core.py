"""Elements of NSym and QSym with exact integer coefficients.

Every element is an immutable integer combination: one private base class,
`_Combination`, holds {key: nonzero int} tagged with its space and defines
the vector-space arithmetic, equality, sorting and formatting once for
`Element` (keys (basis token, composition)), `TensorElement` (pairs of
those) and `schurlike.SymElement` (partitions).  Its public constructor
validates every key; library code builds from checked keys unchecked.

H (complete homogeneous) and M (monomial) are the canonical bases of NSym
and QSym; every other basis registers a pair of expansion maps to and from
the canonical one, and all structural operations (products, coproducts, the
pairing, involutions, the antipode) are computed canonically and converted
back.  Every linear map on a combination is one kernel, `linear`, which
sums c * line(key), merges equal keys and drops zeros: basis changes, the
canonical route of the involutions and the coproduct call it, while the
bilinear products (`multiply`, the tensor product, `_peel`) keep their
loops inline.  A tensor converts one leg at a time (`_leg`): the left leg
of every term, merged, then the right.  The involutions have closed forms
on the canonical bases: rho reverses the index of H_a and M_a,
psi(H_a) = E_a, psi(M_a) is a signed sum over the coarsenings of a,
omega = rho psi, and the antipode is (-1)^degree omega.  On the ribbon basis R and the
fundamental basis F each involution is a pure reindex: psi complements the
index, rho reverses it and omega transposes it.  A basis registered as the
image of another (E = psi(H), and the Schur-like bases transported from
shin) is reached from it by reindexing alone.  So an involution or
the antipode of an element of R, F or a registered image is a reindex into
the partner basis; into any other basis but the canonical one it then reads
one memoised partner-to-basis line per index (`_across`).  Mixed supports
and the other bases take the canonical route.  A basis registered by its
image alone derives its maps: a rho image reads its source's matrix lines
(`MatrixLines`) through the reversal, and a psi image the rows that
`transition_matrix`, the one dense builder, carries from the source a whole
degree at a time (a sign diagonal times the zeta matrix of the Boolean
lattice of descent sets).  A dual basis reads its partner's lines with rows
and columns swapped (`dual_maps`), so the eight Schur-like bases read four
stored matrices: shin's K, K^-1 and the two psi carries.  Between two other
bases `transition_matrix` is the product through the canonical basis.

Coefficients live in the integers by design: the canonical transition
matrices of all registered bases are integral both ways, and every
computation stays in the integers (no step divides).  No basis inverts a
matrix; `exact_inverse`, which pivots only on +1 and -1, is the matrix
leg of the oracles in `verify` and the tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache, partial
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, NamedTuple

from . import compositions as comps

NSYM = "NSym"
QSYM = "QSym"
CANONICAL = {NSYM: "H", QSYM: "M"}

# display/sort order of tokens; schur-like tokens are appended on registration
_TOKEN_ORDER = ["H", "E", "R", "M", "F"]


class _BasisInfo(NamedTuple):
    algebra: str
    expand: Callable  # comp -> {comp: int}, image of basis element in canonical
    unexpand: Callable  # comp -> {comp: int}, canonical element in this basis
    psi_of: str = None  # the source, when the maps read the rows psi carries from it


def linear(coeffs: dict, line) -> dict:
    """The one linear-map kernel: the sum of c * line(key) over {key: c},
    each line given as (key, int) pairs, equal keys merged, zeros dropped."""
    out = {}
    get = out.get
    for key, c in coeffs.items():
        for k, v in line(key):
            out[k] = get(k, 0) + c * v
    return {k: v for k, v in out.items() if v} if 0 in out.values() else out


class MatrixLines(NamedTuple):
    """A map read off whole-degree matrices: line `key` is row fix(key) of
    matrix(n), or its column if `column`, over the sorted index list
    indices(n), n = |key|, each index c read as fix(c), zeros dropped;
    `fix` is one of `_KLEIN`, so a rho image reads its source's matrices."""
    matrix: Callable
    indices: Callable
    column: bool
    fix: Callable = tuple

    def __call__(self, key) -> dict:
        n, fix = sum(key), self.fix
        rows, ordered = self.matrix(n), self.indices(n)
        k = bisect_left(ordered, fix(key))
        line = (row[k] for row in rows) if self.column else rows[k]
        return {fix(c): v for c, v in zip(ordered, line) if v}

    def lines(self, n: int) -> tuple:
        """Every line of degree n as a dense row, built in one pass."""
        rows, ordered = self.matrix(n), self.indices(n)
        if self.fix is tuple:
            return tuple(zip(*rows)) if self.column else rows
        order = [bisect_left(ordered, self.fix(c)) for c in ordered]
        if self.column:  # transpose the reordered rows, then reorder the columns
            across = tuple(zip(*map(rows.__getitem__, order)))
            return tuple(map(across.__getitem__, order))
        return tuple(tuple(map(rows[i].__getitem__, order)) for i in order)

    def apply(self, coeffs: dict) -> dict:
        """The combination {key: coeff} mapped line by line (`linear`)."""
        return linear(coeffs, lambda key: self(key).items())


_REGISTRY: dict = {}

# The reindexing involutions: name(X_a) = _PARTNER[name][X]_f(a), with the
# index map f = _INDEX_MAP[name][X].  The maps are the Klein four-group
# _KLEIN: each is its own inverse, and any two compose to the third, which
# sits at the XOR of their positions (transpose = reverse . complement).  The
# closed forms start the tables: rho reverses the indices of H, M, R and F,
# and psi complements those of R and F.  `register_basis` adds each basis's
# stated image with the map _FIX[name] (psi(H) = E, omega(sh) = bsh), and
# `_close_partners` the pairs they imply (rho(rsh) = bsh, omega of H).
_KLEIN = (tuple, comps.reverse, comps.complement, comps.transpose)
_FIX = {"psi": tuple, "rho": comps.reverse, "omega": comps.reverse}
_PARTNER = {"psi": {}, "rho": {}, "omega": {}}
_INDEX_MAP = {"psi": {}, "rho": {}, "omega": {}}


def _pair(name: str, x: str, y: str, index_map) -> None:
    """Record name(x_a) = y_index_map(a) and, the map being an involution,
    name(y_b) = x_index_map(b)."""
    _PARTNER[name][x], _PARTNER[name][y] = y, x
    _INDEX_MAP[name][x] = _INDEX_MAP[name][y] = index_map


def _close_partners() -> None:
    """Add every reindex that the recorded ones imply: each involution is its
    own inverse, and any two of psi, rho, omega compose to the third, so
    h(X_a) = Z_(f_map . g_map)(a) whenever g reindexes X into Y and f
    reindexes Y into Z."""
    grew = True
    while grew:
        grew = False
        for f in _PARTNER:
            for g in _PARTNER:
                if f == g:
                    continue
                h = next(n for n in _PARTNER if n not in (f, g))
                for x, y in list(_PARTNER[g].items()):
                    z = _PARTNER[f].get(y)
                    if z is not None and x not in _PARTNER[h]:
                        composed = _KLEIN.index(_INDEX_MAP[f][y]) ^ _KLEIN.index(_INDEX_MAP[g][x])
                        _pair(h, x, z, _KLEIN[composed])
                        grew = True


for _basis in ("H", "M", "R", "F"):
    _pair("rho", _basis, _basis, comps.reverse)
for _basis in ("R", "F"):
    _pair("psi", _basis, _basis, comps.complement)
_close_partners()


def register_basis(token: str, algebra: str, expand=None, unexpand=None, image=None) -> None:
    """Install a basis: `expand` and `unexpand` map one index to {comp: int}
    in and out of the canonical basis.  `image=(name, source)` states that
    token_a = name(source_fix(a)) (fix reverses a for rho and omega): the
    involutions reindex between the two bases, and, given without maps, it
    derives them from a source read off matrices (`_derived`), omega's by
    way of psi.  Anything else is refused before the registry is touched."""
    _check_algebra(algebra)
    if token in _REGISTRY:
        raise ValueError(f"basis {token!r} already registered")
    name, source = image or (None, None)
    if image and (name not in _FIX or source not in _REGISTRY):
        raise ValueError(f"basis {token!r}: {name}({source}) is no involution of a basis")
    derived = image and expand is None and unexpand is None
    if derived:
        expand, unexpand = _derived(token, algebra, name, source)
    if expand is None or unexpand is None:
        raise ValueError(f"basis {token!r} needs both expansion maps or an image to derive them")
    psi_of = source if derived and name == "psi" else None
    _REGISTRY[token] = _BasisInfo(algebra, expand, unexpand, psi_of)
    if token not in _TOKEN_ORDER:
        _TOKEN_ORDER.append(token)
    if image:
        _pair(name, source, token, _FIX[name])
        _close_partners()
    for cached in (_expand, _unexpand, _across):
        cached.cache_clear()


def _derived(token: str, algebra: str, name: str, source: str) -> tuple:
    """The maps of token = name(source) for a source read off matrices:
    psi's read the rows that `transition_matrix` carries, rho's are the
    source's lines with the reversal (_KLEIN[1]) composed into `fix`, and
    omega's, as omega = rho psi, rho's of a psi partner on the same indices."""
    if name == "omega" and _INDEX_MAP["psi"].get(source) is tuple:
        name, source = "rho", _PARTNER["psi"][source]
    maps = _REGISTRY[source][1:3]
    if name == "omega" or not all(isinstance(m, MatrixLines) for m in maps):
        return None, None
    if name == "rho":
        return tuple(m._replace(fix=_KLEIN[_KLEIN.index(m.fix) ^ 1]) for m in maps)
    canonical = CANONICAL[algebra]
    return (MatrixLines(partial(_rows, token, canonical), comps.compositions, False),
            MatrixLines(partial(_rows, canonical, token), comps.compositions, False))


def dual_maps(token: str) -> tuple:
    """(expand, unexpand) of X*, the dual of a basis X read off matrices:
    T(X* -> M) = T(H -> X)^t and T(M -> X*) = T(X -> H)^t, `column` flipped."""
    info = _REGISTRY[check_basis(token)]
    return tuple(m._replace(column=not m.column) for m in (info.unexpand, info.expand))


def bases(algebra=None) -> tuple:
    return tuple(
        t for t, info in _REGISTRY.items() if algebra in (None, info.algebra)
    )


def check_basis(token: str, algebra=None) -> str:
    info = _REGISTRY.get(token)
    if info is None:
        raise KeyError(f"unknown basis {token!r}")
    if algebra is not None and info.algebra != algebra:
        raise ValueError(f"basis {token!r} lives in {info.algebra}, not {algebra}")
    return token


def algebra_of(token: str) -> str:
    return _REGISTRY[check_basis(token)].algebra


@lru_cache(maxsize=None)
def _expand(basis: str, comp: tuple) -> tuple:
    return tuple(sorted(_REGISTRY[basis].expand(comp).items()))


@lru_cache(maxsize=None)
def _unexpand(basis: str, comp: tuple) -> tuple:
    return tuple(sorted(_REGISTRY[basis].unexpand(comp).items()))


@lru_cache(maxsize=None)
def _across(source: str, target: str, comp: tuple) -> tuple:
    """The line of source_comp in `target`, neither basis canonical: its
    canonical line unexpanded once.  Only lines that are read are kept; the
    whole-degree product T(source -> target) would cost more than the
    conversion it saves."""
    return tuple(sorted(linear(dict(_expand(source, comp)), partial(_unexpand, target)).items()))


# ---------------------------------------------------------------------------
# exact linear algebra over the integers

def exact_inverse(rows) -> tuple:
    """Invert a square integer matrix by Gauss-Jordan elimination in the
    integers, over sparse rows.

    Only +1 and -1 entries serve as pivots, so no step divides: each step
    takes the remaining row with the fewest nonzero entries that holds a
    unit, pivots on its first one, and clears that column from every other
    row.  A unitriangular matrix, with rows and columns in any order, is
    inverted in this way.  The limit: when no remaining row holds a unit
    (a singular matrix, or a unimodular one such as [[2, 3], [3, 5]]),
    ArithmeticError is raised.
    """
    n = len(rows)
    left = [{j: v for j, v in enumerate(row) if v} for row in rows]
    right = [{i: 1} for i in range(n)]
    inverse = [None] * n
    unused = set(range(n))
    while unused:
        pivot, col = _unit_pivot(left, unused)
        unused.remove(pivot)
        row, inv_row = left[pivot], right[pivot]
        if row[col] == -1:
            row, inv_row = {c: -v for c, v in row.items()}, {c: -v for c, v in inv_row.items()}
            left[pivot], right[pivot] = row, inv_row
        for other in range(n):
            f = left[other].get(col) if other != pivot else None
            if not f:
                continue
            for target, source in ((left[other], row), (right[other], inv_row)):
                for c, v in source.items():
                    w = target.get(c, 0) - f * v
                    if w:
                        target[c] = w
                    else:
                        del target[c]
        inverse[col] = inv_row
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in inverse)


def _unit_pivot(left, unused):
    """The sparsest unused row that holds a +1 or -1, and that entry's column."""
    for size, r in sorted((len(left[r]), r) for r in unused):
        if not size:
            raise ArithmeticError("matrix is singular")
        for c in sorted(left[r]):
            if left[r][c] in (1, -1):
                return r, c
    raise ArithmeticError("no unit pivot left: the inverse needs division")


# ---------------------------------------------------------------------------
# elements

def format_index(basis: str, comp) -> str:
    return f"{basis}[{','.join(map(str, comp))}]"


def signed_sum(terms) -> str:
    """Render (body, nonzero int) pairs as "a - 2 b + c", or "0" if none."""
    pieces = []
    for body, coeff in terms:
        word = body if abs(coeff) == 1 else f"{abs(coeff)} {body}"
        if pieces:
            pieces.append(f"+ {word}" if coeff > 0 else f"- {word}")
        else:
            pieces.append(word if coeff > 0 else f"-{word}")
    return " ".join(pieces) or "0"


def _term_sort_key(key):
    basis, comp = key
    return (sum(comp), comp, _TOKEN_ORDER.index(basis))


class _Combination:
    """A finite integer combination {key: nonzero int} tagged with its space.

    Subclasses say what differs: `_SPACE` (the JSON name of the space),
    `_check_space`, `_check_key`, `_sort_key`, `_label`, `_json_key`,
    `_canonical` (what equality compares) and `_product`.  The public
    constructor checks every key and coefficient; library code builds from
    keys it has already checked through `_of`.  Instances are immutable:
    `terms` is a read-only view.
    """

    __slots__ = ("_space", "_terms")

    def __init__(self, space, terms=None):
        self._check_space(space)
        checked = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            key = self._check_key(space, key)
            if coeff:
                checked[key] = coeff
        self._space = space
        self._terms = checked

    @classmethod
    def _of(cls, space, terms):
        """Build from checked keys without re-checking; zeros are dropped.
        The dict is taken over, not copied: the caller keeps no reference."""
        new = object.__new__(cls)
        new._space = space
        new._terms = {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms
        return new

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other._space != self._space:
            raise ValueError(f"cannot add {self._space} and {other._space} elements")
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._of(self._space, terms)

    def __radd__(self, other):
        if isinstance(other, int) and other == 0:  # so the builtin sum() works
            return self
        return NotImplemented

    def __neg__(self):
        return self._of(self._space, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._of(self._space, {k: c * other for k, c in self._terms.items()})
        if type(other) is type(self):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._canonical() == other._canonical()

    __hash__ = None

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def __str__(self):
        return signed_sum((self._label(k), c) for k, c in self.sorted_terms())

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        return {
            self._SPACE: self._space,
            "terms": [{**self._json_key(k), "coeff": str(c)} for k, c in self.sorted_terms()],
        }


def _check_algebra(algebra):
    if algebra not in (NSYM, QSYM):
        raise ValueError(f"unknown algebra {algebra!r}")


def _check_index(algebra, key):
    basis, comp = key
    return (check_basis(basis, algebra), comps.check_composition(comp))


def _index_json(key):
    basis, comp = key
    return {"basis": basis, "index": list(comp)}


class Element(_Combination):
    """A finite integer combination of basis elements of NSym or QSym,
    keyed by (basis token, composition)."""

    __slots__ = ()
    _SPACE = "algebra"
    algebra = property(attrgetter("_space"))
    _check_space = staticmethod(_check_algebra)
    _check_key = staticmethod(_check_index)
    _sort_key = staticmethod(_term_sort_key)
    _json_key = staticmethod(_index_json)

    def _label(self, key):
        return format_index(*key)

    def _canonical(self):
        return self._space, self.canonical_dict()

    def _product(self, other):
        return multiply(self, other)

    def degrees(self) -> tuple:
        return tuple(sorted({sum(c) for _, c in self._terms}))

    def coefficient(self, basis: str, comp) -> int:
        return self._terms.get((basis, tuple(comp)), 0)

    def support_basis(self):
        """The single basis token all terms use, or None if mixed/empty."""
        seen = {b for b, _ in self._terms}
        return seen.pop() if len(seen) == 1 else None

    # -- basis changes

    def canonical_dict(self) -> dict:
        """Coefficients in the canonical basis, as {composition: int}."""
        canonical = CANONICAL[self._space]
        for basis, _ in self._terms:
            if basis != canonical:
                return linear(self._terms, partial(_expanded, canonical))
        return {comp: c for (_, comp), c in self._terms.items()}

    def convert(self, target: str) -> "Element":
        check_basis(target, self._space)
        coeffs = self.canonical_dict()
        if target != CANONICAL[self._space]:
            coeffs = linear(coeffs, partial(_unexpand, target))
        return Element._of(self._space, {(target, c): v for c, v in coeffs.items()})


def _expanded(canonical: str, key: tuple) -> tuple:
    """The line of (basis, comp) in the canonical basis."""
    basis, comp = key
    return ((comp, 1),) if basis == canonical else _expand(basis, comp)


def element_from_json(data: dict) -> Element:
    terms = {}
    for t in data["terms"]:
        key = (t["basis"], tuple(t["index"]))
        terms[key] = terms.get(key, 0) + int(t["coeff"])
    return Element(data["algebra"], terms)


def term(basis: str, comp, coeff: int = 1) -> Element:
    return Element(algebra_of(basis), {(basis, tuple(comp)): coeff})


def zero(algebra: str) -> Element:
    return Element(algebra)


def one(algebra: str) -> Element:
    return Element(algebra, {(CANONICAL[algebra], ()): 1})


# ---------------------------------------------------------------------------
# canonical products

@lru_cache(maxsize=None)
def quasi_shuffle(a: tuple, b: tuple) -> tuple:
    """M_a * M_b as ((composition, coefficient), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = {}
    for g, c in quasi_shuffle(a[1:], b):
        k = (a[0],) + g
        out[k] = out.get(k, 0) + c
    for g, c in quasi_shuffle(a, b[1:]):
        k = (b[0],) + g
        out[k] = out.get(k, 0) + c
    for g, c in quasi_shuffle(a[1:], b[1:]):
        k = (a[0] + b[0],) + g
        out[k] = out.get(k, 0) + c
    return tuple(sorted(out.items()))


def _canonical_product(algebra: str, a: tuple, b: tuple) -> tuple:
    if algebra == NSYM:
        return ((a + b, 1),)
    return quasi_shuffle(a, b)


def multiply(x: Element, y: Element, basis=None) -> Element:
    if x.algebra != y.algebra:
        raise ValueError("cannot multiply NSym and QSym elements")
    algebra = x.algebra
    out = {}
    get = out.get
    right = y.canonical_dict().items()
    for a, ca in x.canonical_dict().items():
        if algebra == NSYM:  # H_a H_b = H_(a b)
            for b, cb in right:
                g = a + b
                out[g] = get(g, 0) + ca * cb
        else:
            for b, cb in right:
                for g, v in quasi_shuffle(a, b):
                    out[g] = get(g, 0) + ca * cb * v
    canonical = CANONICAL[algebra]
    result = Element._of(algebra, {(canonical, c): v for c, v in out.items()})
    target = basis or x.support_basis() or canonical
    return result.convert(target)


# ---------------------------------------------------------------------------
# coproducts and tensors

def _check_tensor_key(algebra, key):
    left, right = key
    return (_check_index(algebra, left), _check_index(algebra, right))


def _tensor_sort_key(key):
    return (_term_sort_key(key[0]), _term_sort_key(key[1]))


class TensorElement(_Combination):
    """An integer combination of two-fold tensors over one algebra, keyed
    by ((basis, composition), (basis, composition))."""

    __slots__ = ()
    _SPACE = "algebra"
    algebra = property(attrgetter("_space"))
    _check_space = staticmethod(_check_algebra)
    _check_key = staticmethod(_check_tensor_key)
    _sort_key = staticmethod(_tensor_sort_key)

    def _label(self, key):
        return f"{format_index(*key[0])} (x) {format_index(*key[1])}"

    @staticmethod
    def _json_key(key):
        return {"left": _index_json(key[0]), "right": _index_json(key[1])}

    def _canonical(self):
        return self._space, self.canonical_dict()

    def _product(self, other):
        """Componentwise product: (a (x) b)(c (x) d) = ac (x) bd."""
        if other._space != self._space:
            raise ValueError(f"cannot multiply {self._space} and {other._space} tensors")
        out = {}
        left = self.canonical_dict()
        right = other.canonical_dict()
        for (a1, a2), c1 in left.items():
            for (b1, b2), c2 in right.items():
                for g1, v1 in _canonical_product(self._space, a1, b1):
                    for g2, v2 in _canonical_product(self._space, a2, b2):
                        k = (g1, g2)
                        out[k] = out.get(k, 0) + c1 * c2 * v1 * v2
        canonical = CANONICAL[self._space]
        return TensorElement._of(
            self._space,
            {((canonical, g1), (canonical, g2)): v for (g1, g2), v in out.items()},
        )

    def canonical_dict(self) -> dict:
        """Coefficients with both legs canonical: {(compL, compR): int}."""
        canonical = CANONICAL[self._space]
        for (left, _), (right, _) in self._terms:
            if left != canonical or right != canonical:
                line = partial(_expanded, canonical)
                return _leg(_leg(self._terms, 0, line), 1, line)
        return {(l, r): c for ((_, l), (_, r)), c in self._terms.items()}

    def convert(self, left_basis: str, right_basis: str) -> "TensorElement":
        """Both legs in the given bases: the left leg of every term first,
        merged, then the right leg, so each distinct leg converts once."""
        algebra = self._space
        check_basis(left_basis, algebra)
        check_basis(right_basis, algebra)
        canonical = CANONICAL[algebra]
        terms = self.canonical_dict()
        for side, basis in ((0, left_basis), (1, right_basis)):
            if basis != canonical:
                terms = _leg(terms, side, partial(_unexpand, basis))
        return TensorElement._of(algebra, {((left_basis, d1), (right_basis, d2)): v
                                           for (d1, d2), v in terms.items()})


# One leg at a time: |U(c1)| + |U(c2)| products per term, not |U(c1)| * |U(c2)|.

def _leg(terms: dict, side: int, line) -> dict:
    """`linear` on leg `side` (0 left, 1 right) of every key, kept inline:
    through the kernel, rebuilding each key made coproducts 1.5x slower."""
    out = {}
    for key, coeff in terms.items():
        for leg, v in line(key[side]):
            k = (leg, key[1]) if side == 0 else (key[0], leg)
            out[k] = out.get(k, 0) + coeff * v
    return {k: v for k, v in out.items() if v} if 0 in out.values() else out


def tensor_term(basis_l: str, comp_l, basis_r: str, comp_r, coeff: int = 1) -> TensorElement:
    algebra = algebra_of(basis_l)
    if algebra_of(basis_r) != algebra:
        raise ValueError("tensor legs must live in one algebra")
    return TensorElement(
        algebra, {((basis_l, tuple(comp_l)), (basis_r, tuple(comp_r))): coeff}
    )


@lru_cache(maxsize=None)
def _coproduct_H(comp: tuple) -> tuple:
    """Deltas of H_comp: each part splits as i + (part - i)."""
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


@lru_cache(maxsize=None)
def _deconcatenations(comp: tuple) -> tuple:
    """Deltas of M_comp: it deconcatenates."""
    return tuple(((comp[:i], comp[i:]), 1) for i in range(len(comp) + 1))


def coproduct(x: Element) -> TensorElement:
    algebra = x.algebra
    canonical = CANONICAL[algebra]
    splits = linear(x.canonical_dict(), _coproduct_H if algebra == NSYM else _deconcatenations)
    return TensorElement._of(algebra, {((canonical, l), (canonical, r)): v
                                       for (l, r), v in splits.items()})


def counit(x: Element) -> int:
    return sum(c for (b, comp), c in x._terms.items() if not comp)


# ---------------------------------------------------------------------------
# duality

def pair(h: Element, f: Element) -> int:
    """The duality pairing; h must be NSym and f QSym."""
    if h.algebra != NSYM or f.algebra != QSYM:
        raise ValueError("pair() takes an NSym element then a QSym element")
    hc = h.canonical_dict()
    fc = f.canonical_dict()
    if len(hc) > len(fc):
        hc, fc = fc, hc
    return sum(c * fc.get(comp, 0) for comp, c in hc.items())


def pair_tensor(tx: TensorElement, ty: TensorElement) -> int:
    """Legwise pairing of an NSym tensor with a QSym tensor."""
    if tx.algebra != NSYM or ty.algebra != QSYM:
        raise ValueError("pair_tensor() takes an NSym tensor then a QSym tensor")
    xc = tx.canonical_dict()
    yc = ty.canonical_dict()
    return sum(c * yc.get(k, 0) for k, c in xc.items())


def _peel(h: Element, f: Element, front: bool, what: str) -> Element:
    """Peel the H-indices of h off the front (or the back) of the M-indices
    of f, in canonical terms."""
    if h.algebra != NSYM or f.algebra != QSYM:
        raise ValueError(f"{what}() takes an NSym element then a QSym element")
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
    return Element._of(QSYM, out)


def perp(h: Element, f: Element) -> Element:
    """The operator on QSym adjoint to left multiplication by h: peel the
    H-indices of h off the *front* of the M-indices of f."""
    return _peel(h, f, True, "perp")


def rperp(h: Element, f: Element) -> Element:
    """Adjoint to right multiplication by h: peel H-indices off the back."""
    return _peel(h, f, False, "rperp")


# ---------------------------------------------------------------------------
# involutions and the antipode

@lru_cache(maxsize=None)
def _image(algebra: str, name: str, comp: tuple) -> tuple:
    """The involution `name` of one canonical basis element, as canonical
    (comp, int) pairs: rho reverses the index, psi(H_a) = E_a,
    psi(M_a) = (-1)^(n - len a) times the sum of M over the coarsenings of
    a, and omega = rho psi."""
    if name == "rho":
        return ((comps.reverse(comp), 1),)
    if name == "omega":
        return tuple((comps.reverse(c), v) for c, v in _image(algebra, "psi", comp))
    if algebra == NSYM:
        return _expand("E", comp)
    return tuple(_psi_M(comp).items())


def _involute(x: Element, name: str, signed: bool, basis: str) -> Element:
    """The canonical route: x under the involution `name`, with the sign
    (-1)^degree if `signed`, term by term through `_image` on the canonical
    basis, then in `basis`."""
    coeffs = x.canonical_dict()
    if signed:
        coeffs = {comp: -c if sum(comp) % 2 else c for comp, c in coeffs.items()}
    out = linear(coeffs, partial(_image, x.algebra, name))
    canonical = CANONICAL[x.algebra]
    return Element._of(x.algebra, {(canonical, c): v for c, v in out.items()}).convert(basis)


def _apply(name: str, x: Element, signed: bool, basis: str) -> Element:
    """x under the involution `name` (with the sign (-1)^degree if `signed`)
    in `basis`.  On a basis X that `name` reindexes it is the reindex
    name(X_a) = P_f(a) into the partner P, f the index map of the pair, read
    in `basis` through the memoised lines `_across` when neither `basis`
    nor P is canonical, and converted otherwise unless `basis` is P; any
    other x takes the canonical route."""
    support = x.support_basis()
    if support not in _PARTNER[name]:
        return _involute(x, name, signed, basis)
    partner, fix = _PARTNER[name][support], _INDEX_MAP[name][support]
    coeffs = {fix(comp): -coeff if signed and sum(comp) % 2 else coeff
              for (_, comp), coeff in x._terms.items()}
    if CANONICAL[x.algebra] not in (basis, partner) and basis != partner:
        coeffs, partner = linear(coeffs, partial(_across, partner, basis)), basis
    image = Element._of(x.algebra, {(partner, c): v for c, v in coeffs.items()})
    return image if basis == partner else image.convert(basis)


def involution(name: str, x: Element, basis=None) -> Element:
    """Apply psi, rho, or omega; the result is converted to `basis` if given,
    else to the natural partner of x's basis (or the canonical basis)."""
    if name not in _PARTNER:
        raise ValueError(f"unknown involution {name!r}")
    support = x.support_basis()
    return _apply(name, x, False,
                  basis or _PARTNER[name].get(support, support) or CANONICAL[x.algebra])


def antipode(x: Element, basis=None) -> Element:
    """The Hopf antipode: (-1)^degree times omega, in `basis` if given, else
    in x's basis (or the canonical basis)."""
    return _apply("omega", x, True, basis or x.support_basis() or CANONICAL[x.algebra])


# ---------------------------------------------------------------------------
# transition matrices

class TransitionMatrix(NamedTuple):
    source: str
    target: str
    degree: int
    indices: tuple  # compositions of the degree, canonical order
    rows: tuple  # rows[i][j] = coefficient of target[indices[j]] in source[indices[i]]


@lru_cache(maxsize=None)
def transition_matrix(source: str, target: str, degree: int) -> TransitionMatrix:
    """The one dense builder.  Between a basis and the canonical one the rows
    are its map's lines, or `_carried` for a basis registered as psi of
    another by its image alone; any other pair is the product
    T(source -> canonical) T(canonical -> target).  A reindexed or
    transposed matrix is built only when asked for: no map reads one."""
    algebra = algebra_of(source)
    if algebra_of(target) != algebra:
        raise ValueError("transition matrix needs two bases of one algebra")
    cs = comps.compositions(comps.check_dense_degree(degree))
    canonical = CANONICAL[algebra]
    if canonical not in (source, target):
        return TransitionMatrix(source, target, degree, cs, _product(
            _rows(source, canonical, degree), _rows(canonical, target, degree)))
    forth = target == canonical
    info = _REGISTRY[source if forth else target]
    line = info.expand if forth else info.unexpand
    if info.psi_of:
        rows = _carried(info.psi_of, forth, degree)
    elif isinstance(line, MatrixLines):
        rows = line.lines(degree)
    else:
        zeros = (0,) * len(cs)
        rows = tuple(tuple(map(line(a).get, cs, zeros)) for a in cs)
    return TransitionMatrix(source, target, degree, cs, rows)


def _rows(source: str, target: str, degree: int) -> tuple:
    return transition_matrix(source, target, degree).rows


def _carried(source: str, forth: bool, degree: int) -> tuple:
    """The rows of X = psi(source), X_a = psi(source_a), to (forth) or from
    the canonical basis: T(X -> can) = T(source -> can) Q and
    T(can -> X) = Q T(can -> source), Q the matrix of psi, no copy kept."""
    info = _REGISTRY[source]
    on_m = info.algebra == QSYM
    if forth:  # T Q = (Q^t T^t)^t, T^t the source's lines read across
        across = info.expand._replace(column=not info.expand.column)
        return tuple(zip(*_psi(across.lines(degree), on_m)))
    return _psi(info.unexpand.lines(degree), not on_m)


def _psi(rows: tuple, on_h: bool) -> tuple:
    """psi over the rows of a square matrix: P rows (`on_h`) or P^t rows.
    Index k of compositions(n), in n - 1 bits with the first position
    highest, is the complement of the descent set, so c refines b exactly
    when k(c) is a submask of k(b), and (-1)^(n - len c) = (-1)^popcount(k(c)).
    So psi(H_b) = E_b makes P the signs, then the submask sums, one pass per
    bit; psi(M_a), P^t, is the supermask sums, then the signs.  The rows
    travel packed (`_pack`), and a pass adds whole rows at once."""
    size = len(rows)
    packed = _pack(rows, size)  # a row of P or P^t has at most size entries, each +-1
    if on_h:
        _sign(packed)
    bit = 1
    while bit < size:
        for k in (k for k in range(size) if k & bit):
            if on_h:
                packed[k] += packed[k ^ bit]
            else:
                packed[k ^ bit] += packed[k]
        bit <<= 1
    if not on_h:
        _sign(packed)
    return _unpack(packed)


def _product(left: tuple, right: tuple) -> tuple:
    """left times right, square integer matrices, over packed rows."""
    packed = _pack(right, max(sum(map(abs, row)) for row in left))
    return _unpack([sum(v * packed[k] for k, v in enumerate(row) if v) for row in left])


def _pack(rows: tuple, weight: int) -> list:
    """Each row of a square matrix as one integer with a 64-bit field per
    entry, biased so that a field reads back signed.  Sums of packed rows
    are the packed sums, for sums whose coefficients add up to at most
    `weight` in absolute value; past 2^63 / largest entry that is refused."""
    if weight * max(max(map(max, rows)), -min(map(min, rows))) >> 63:
        raise ArithmeticError("transition matrix entries too large for 64-bit fields")
    bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * len(rows), "little")
    return [(int.from_bytes(array("q", row).tobytes(), "little") ^ bias) - bias
            for row in rows]


def _unpack(packed: list) -> tuple:
    size = len(packed)
    bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * size, "little")
    packed.reverse()  # popped in order, so that each row is freed once read back
    return tuple(tuple(array("q", ((packed.pop() + bias) ^ bias).to_bytes(8 * size, "little")))
                 for _ in range(size))


def _sign(packed: list) -> None:
    """Row k times (-1)^popcount(k), in place."""
    for k in range(len(packed)):
        if bin(k).count("1") % 2:
            packed[k] = -packed[k]


# ---------------------------------------------------------------------------
# the five classical bases

def _signed(listing, sign):
    """The map a -> {g: (-1)^sign(a, g) for each g in listing(a)}.  Both
    ways of E <-> H, R <-> H and F <-> M, and psi(M_a), are such signed
    listings of refinements or coarsenings."""
    def image(comp):
        return {g: -1 if sign(comp, g) % 2 else 1 for g in listing(comp)}

    return image


def _length_gap(a, g):
    return len(a) - len(g)


def _unsigned(a, g):
    return 0


def _identity_expand(comp):
    return {tuple(comp): 1}


_E_H = _signed(comps.refinements, lambda a, g: sum(a) - len(g))
_psi_M = _signed(comps.coarsenings, lambda a, g: sum(a) - len(a))

register_basis("H", NSYM, _identity_expand, _identity_expand)
register_basis("M", QSYM, _identity_expand, _identity_expand)
register_basis("E", NSYM, _E_H, _E_H, image=("psi", "H"))
register_basis("R", NSYM, _signed(comps.coarsenings, _length_gap),
               _signed(comps.coarsenings, _unsigned))
register_basis("F", QSYM, _signed(comps.refinements, _unsigned),
               _signed(comps.refinements, _length_gap))
