"""Composition tableaux for the four Schur-like families.

Shapes are compositions drawn with left-justified rows, row 1 on top.  A
skew shape removes a left prefix of boxes from each of the *top* rows; a
skew-II shape removes a left prefix from each of the *bottom* rows (the
last len(inner) rows of the outer shape, matched to inner in order): with
its rows reversed it is a skew shape, and `is_chain_legal` reads it so.

Each family fixes a row order, a column order and a descent rule; column
conditions compare consecutive boxes in the same column taken in
increasing row order, skipping rows that are too short (or whose box in
that column was removed):

family      rows (left to right)  columns (top down)  descent i
shin        weakly increasing     strictly increasing i+1 strictly below
row_strict  strictly increasing   weakly increasing   i+1 weakly above
flipped     weakly decreasing     strictly increasing i+1 strictly below
backward    strictly decreasing   weakly increasing   i+1 weakly above

K matrices (tableaux of straight shape alpha and type beta) are counted two
ways, and the two share no code.  `count_matrix` backtracks over fillings
(`count_K`), for every family; it counts the row-strict, flipped and
backward matrices, and it is the oracle of the other way.  `chain_matrix`
reads a matrix off strip chains and enumerates no tableau: in a shin
tableau the entries equal to v fill a strip over the entries below v, so
K[alpha][beta] is the number of chains () = g0 < g1 < ... < gk = alpha whose
i-th step is a strip of beta_i boxes.  It builds the shin matrix and, kept
on partition shapes, the Kostka matrix (`schurlike.kostka_matrix`); with
one-box steps they are the saturated chains that `maximal_chains` lists.
Every walk of the Pieri rule over {shape: coefficient} (`strip_chains`,
`maximal_chains`' count, `schurlike.ribbon_multiply`) is a loop of one
step, `strip_walk`, which merges, cancels and holds the walk to the budget.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import compositions as comps

FAMILIES = ("shin", "row_strict", "flipped", "backward")

_ROW_OK = {
    "shin": lambda a, b: a <= b,
    "row_strict": lambda a, b: a < b,
    "flipped": lambda a, b: a >= b,
    "backward": lambda a, b: a > b,
}
_COL_OK = {
    "shin": lambda a, b: a < b,
    "row_strict": lambda a, b: a <= b,
    "flipped": lambda a, b: a < b,
    "backward": lambda a, b: a <= b,
}
# descent rule: is i a descent when i sits in row r and i+1 in row s?
_DESCENT = {
    "shin": lambda r, s: s > r,
    "row_strict": lambda r, s: s <= r,
    "flipped": lambda r, s: s > r,
    "backward": lambda r, s: s <= r,
}


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return family


# Shape and Tableau are NamedTuples rather than frozen dataclasses: importing
# dataclasses pulls inspect, ast and dis into every CLI start.
class Shape(NamedTuple):
    kind: str  # "straight" | "skew" | "skew2"
    outer: tuple
    inner: tuple = ()

    @property
    def removed(self) -> tuple:
        """Boxes removed from the left of each row of outer: inner on the top
        rows, or on the bottom rows of a skew-II shape."""
        inner, pad = tuple(self.inner), (0,) * (len(self.outer) - len(self.inner))
        return pad + inner if self.kind == "skew2" else inner + pad

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_lengths(self) -> tuple:
        return tuple(o - r for o, r in zip(self.outer, self.removed))

    def cells(self) -> list:
        """Unremoved boxes as (row, column) pairs, row-major, 0-indexed."""
        rem = self.removed
        return [(r, c) for r, o in enumerate(self.outer) for c in range(rem[r], o)]


def straight(outer) -> Shape:
    return Shape("straight", comps.check_composition(outer))


def skew(outer, inner) -> Shape:
    outer = comps.check_composition(outer)
    inner = comps.check_composition(inner)
    if not comps.dominated(inner, outer):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    return Shape("skew", outer, inner)


def skew2(outer, inner) -> Shape:
    outer = comps.check_composition(outer)
    inner = comps.check_composition(inner)
    if not comps.dominated(comps.reverse(inner), comps.reverse(outer)):
        raise ValueError(f"inner {inner} not contained in outer {outer} (bottom rows)")
    return Shape("skew2", outer, inner)


def is_chain_legal(shape: Shape) -> bool:
    """Whether the skew region can be built by adding boxes one at a time.

    A skew shape is buildable unless an unremoved box sits in the same
    column above a removed box; a skew-II shape is read with rows reversed.
    """
    outer, rem = shape.outer, shape.removed
    if shape.kind == "skew2":
        outer, rem = outer[::-1], rem[::-1]
    k = len(outer)
    return not any(
        outer[i] > rem[i] and rem[j] > rem[i]
        for i in range(k)
        for j in range(i + 1, k)
    )


class Tableau(NamedTuple):
    family: str
    shape: Shape
    rows: tuple  # one tuple of entries per row of outer, removed boxes omitted

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self) -> list:
        return [v for row in self.rows for v in row]

    def is_standard(self) -> bool:
        return sorted(self.entries()) == list(range(1, self.size + 1))

    def to_json_dict(self) -> dict:
        return {
            "shape": {
                "kind": self.shape.kind,
                "outer": list(self.shape.outer),
                "inner": list(self.shape.inner),
            },
            "family": self.family,
            "rows": [list(r) for r in self.rows],
        }


def _column_predecessors(shape: Shape) -> dict:
    """Map each cell to the previous cell in its column sequence, if any."""
    pred, last = {}, {}
    rem = shape.removed
    for r, o in enumerate(shape.outer):
        for c in range(rem[r], o):
            if c in last:
                pred[(r, c)] = last[c]
            last[c] = (r, c)
    return pred


def validate(t: Tableau) -> bool:
    shape, rows = t.shape, t.rows
    if len(rows) != len(shape.outer):
        return False
    if tuple(len(r) for r in rows) != shape.row_lengths():
        return False
    if any(not isinstance(v, int) or v < 1 for row in rows for v in row):
        return False
    row_ok, col_ok = _ROW_OK[t.family], _COL_OK[t.family]
    for row in rows:
        if any(not row_ok(a, b) for a, b in zip(row, row[1:])):
            return False
    rem = shape.removed
    for (r, c), (r0, c0) in _column_predecessors(shape).items():
        if not col_ok(rows[r0][c0 - rem[r0]], rows[r][c - rem[r]]):
            return False
    return True


def _backtrack(shape: Shape, family: str, type_vec, collect: bool):
    _check_family(family)
    type_vec = tuple(type_vec)
    if any(not isinstance(a, int) or a < 0 for a in type_vec):
        raise ValueError(f"bad type {type_vec!r}")
    cells = shape.cells()
    if sum(type_vec) != len(cells):
        return [] if collect else 0
    row_ok, col_ok = _ROW_OK[family], _COL_OK[family]
    rem = shape.removed
    col_pred = _column_predecessors(shape)
    # for each cell index, the filling positions to compare against
    left_of = []
    up_of = []
    index = {cell: i for i, cell in enumerate(cells)}
    for r, c in cells:
        left_of.append(index[(r, c - 1)] if c - 1 >= rem[r] else -1)
        up_of.append(index[col_pred[(r, c)]] if (r, c) in col_pred else -1)
    remaining = list(type_vec)
    values = [0] * len(cells)
    out = [] if collect else 0
    steps = 0

    def place(i):
        nonlocal out, steps
        if i == len(cells):
            if collect:
                rows = []
                k = 0
                for r, o in enumerate(shape.outer):
                    width = o - rem[r]
                    rows.append(tuple(values[k : k + width]))
                    k += width
                out.append(Tableau(family, shape, tuple(rows)))
            else:
                out += 1
            return
        li, ui = left_of[i], up_of[i]
        for v in range(1, len(remaining) + 1):
            if not remaining[v - 1]:
                continue
            if li >= 0 and not row_ok(values[li], v):
                continue
            if ui >= 0 and not col_ok(values[ui], v):
                continue
            steps += 1
            if steps > comps.MAX_TABLEAU_STEPS:
                raise ValueError(f"{family} tableaux of shape {list(shape.outer)} need more "
                                 f"than {comps.MAX_TABLEAU_STEPS} placements, past the budget")
            remaining[v - 1] -= 1
            values[i] = v
            place(i + 1)
            remaining[v - 1] += 1

    place(0)
    return out


def enumerate_tableaux(shape: Shape, family: str, type_vec) -> list:
    """All family tableaux on shape whose value v appears type_vec[v-1] times.

    type_vec may be a weak composition (zeros allowed).  Tableaux come out
    in lexicographic order of the concatenated rows (top row first).
    """
    return _backtrack(shape, family, type_vec, collect=True)


def count_tableaux(shape: Shape, family: str, type_vec) -> int:
    return _backtrack(shape, family, type_vec, collect=False)


def enumerate_standard(shape: Shape, family: str) -> list:
    return enumerate_tableaux(shape, family, (1,) * shape.size)


def descent_composition(t: Tableau) -> tuple:
    """Descent composition of a standard tableau under its family's rule."""
    if not t.is_standard():
        raise ValueError("descent composition needs a standard tableau")
    n = t.size
    row_of = {}
    for r, row in enumerate(t.rows):
        for v in row:
            row_of[v] = r
    rule = _DESCENT[t.family]
    descents = [i for i in range(1, n) if rule(row_of[i], row_of[i + 1])]
    return comps.comp_of(descents, n)


def flip(t: Tableau) -> Tableau:
    """Reverse the row order and relabel i -> n+1-i: standard shin -> flipped."""
    if t.family != "shin" or not t.is_standard():
        raise ValueError("flip is defined on standard shin tableaux")
    n = t.size
    shape = t.shape
    if shape.kind == "straight":
        new_shape = straight(comps.reverse(shape.outer))
    elif shape.kind == "skew":
        new_shape = skew2(comps.reverse(shape.outer), comps.reverse(shape.inner))
    else:
        raise ValueError("flip expects a straight or skew shape")
    rows = tuple(tuple(n + 1 - v for v in row) for row in reversed(t.rows))
    return Tableau("flipped", new_shape, rows)


def count_K(family: str, alpha, beta) -> int:
    """Number of family tableaux of straight shape alpha and weight beta."""
    return count_tableaux(straight(alpha), family, beta)


def count_matrix(family: str, indices) -> tuple:
    """K[i][j] = count_K(family, indices[i], indices[j]), by backtracking."""
    return tuple(tuple(count_K(family, a, b) for b in indices) for a in indices)


@lru_cache(maxsize=None)
def kappa_matrix(family: str, n: int) -> tuple:
    """K[i][j] = #tableaux of shape C[i] and type C[j], C = compositions(n).

    The shin matrix is read off strip chains (`chain_matrix`); the other
    families are counted tableau by tableau (`count_matrix`).  Only shin
    builds a basis, but `verify tableaux` and the tests read the other
    families' counts through this cached, budget-checked entry, and
    `perfbench`'s self-test replaces it by a (family, n) function.
    """
    cs = comps.compositions(comps.check_dense_degree(n))
    return chain_matrix(cs) if family == "shin" else count_matrix(family, cs)


# ---------------------------------------------------------------------------
# shin strips and the box-adding order on compositions

def is_shin_strip(alpha, beta) -> bool:
    """Whether beta/alpha is a strip extension: each row of alpha may grow,
    at most one new last row appears, and once row i has grown no lower row
    of beta may reach past the old length alpha_i (the overhang rule).  The
    definition, which `strip_extensions` generates; the tests check the one
    against the other."""
    alpha, beta = tuple(alpha), tuple(beta)
    k, m = len(alpha), len(beta)
    if not (k <= m <= k + 1):
        return False
    padded = alpha + (0,) * (m - k)
    if any(b < a for a, b in zip(padded, beta)):
        return False
    for i in range(m):
        if beta[i] > padded[i] and any(beta[j] > padded[i] for j in range(i + 1, m)):
            return False
    return True


def strip_extensions(alpha, r: int) -> tuple:
    """All beta with |beta| = |alpha| + r such that beta/alpha is a strip."""
    alpha = tuple(alpha)
    if r < 0:
        raise ValueError("strip size must be nonnegative")
    found = []

    def grow(i, left, tallest, lower):
        # rows below i are fixed (lower, bottom up); row i may grow only if
        # none of them reaches past its old length alpha[i]
        if i < 0:
            if not left:
                found.append(tuple(reversed(lower)))
            return
        a = alpha[i]
        for d in range(left + 1 if tallest <= a else 1):
            lower.append(a + d)
            grow(i - 1, left - d, max(tallest, a + d), lower)
            lower.pop()

    for new_row in range(r + 1):  # length of the new last row, 0 for none
        grow(len(alpha) - 1, r - new_row, new_row, [new_row] if new_row else [])
    return tuple(sorted(found))


def strip_walk(states, moves, what) -> dict:
    """One step of a signed walk over {state: int}: `moves(state)` gives
    (up, down), the states its coefficient goes to with sign +1 and -1.
    Equal states merge and cancelled ones drop.  More than
    comps.MAX_REFINEMENTS live states are refused while the step runs:
    past that many held, the cancelled ones are dropped, at most once a
    quarter budget of new states, and the rest counted."""
    budget = comps.MAX_REFINEMENTS
    out, limit = {}, budget
    get = out.get
    for state, c in states.items():
        up, down = moves(state)
        for nxt in up:
            out[nxt] = get(nxt, 0) + c
        for nxt in down:
            out[nxt] = get(nxt, 0) - c
        if len(out) > limit:
            out = {k: v for k, v in out.items() if v}
            if len(out) > budget:
                break
            get, limit = out.get, len(out) + budget // 4
    if 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    if len(out) > budget:
        raise ValueError(f"{what} needs more than {budget} live states, past the budget")
    return out


class _Strips(dict):
    """shape -> its strips of r boxes that pass `keep`, as `strip_walk`
    moves (all of sign +1), listed at the shape's first lookup."""

    def __init__(self, r, keep=None):
        self.r, self.keep = r, keep

    def __missing__(self, gamma):
        ext = strip_extensions(gamma, self.r)
        ext = self[gamma] = (tuple(filter(self.keep, ext)) if self.keep else ext), ()
        return ext


def strip_chains(start, words, keep=None):
    """Yield (word, counts) for each distinct word in sorted order: counts[g]
    is the number of chains start = g0 < g1 < ... < gk = g whose t-th step
    is a strip of word[t] boxes, every g passing `keep` if given (the
    paper's right Pieri rule sh_a H_r, one `strip_walk` step a part).
    Sorted words that share a prefix are adjacent, so each prefix is walked
    once and only the counts along the current word are held."""
    start, words = tuple(start), sorted(set(map(tuple, words)))
    moves = {r: _Strips(r, keep).__getitem__ for word in words for r in word}
    path = [((), {start: 1})]  # (prefix, counts) pairs
    for word in words:
        while path[-1][0] != word[:len(path[-1][0])]:
            path.pop()
        prefix, counts = path[-1]
        for r in word[len(prefix):]:
            counts = strip_walk(counts, moves[r], f"strip chains from {list(start)}")
            prefix += (r,)
            path.append((prefix, counts))
        yield word, counts


def chain_matrix(indices, keep=None) -> tuple:
    """K[i][j] = the number of strip chains from () to indices[i] with steps
    of indices[j][0], indices[j][1], ... boxes (`strip_chains`)."""
    chains = dict(strip_chains((), indices, keep))
    columns = [chains[tuple(beta)] for beta in indices]
    return tuple(tuple(col.get(alpha, 0) for col in columns) for alpha in indices)


def maximal_chains(beta, alpha) -> tuple:
    """All saturated chains beta = g0 < g1 < ... < gm = alpha, one box a step,
    in lexicographic order.  A step goes only to shapes that reach alpha
    (inside it, with a chain-legal skew), so each partial chain ends in a
    full one.  The chains are counted by `strip_walk`, one level of shapes
    at a time, and more than comps.MAX_REFINEMENTS are refused before any
    is listed; the rest are listed level by level over the same covers."""
    alpha, beta = tuple(alpha), tuple(beta)

    def reaches(g):
        return comps.dominated(g, alpha) and is_chain_legal(Shape("skew", alpha, g))

    covers, what = _Strips(1, reaches).__getitem__, f"{list(beta)} -> {list(alpha)}"
    steps = range(sum(alpha) - sum(beta))
    level = {beta: 1} if reaches(beta) else {}
    for _ in steps:
        level = strip_walk(level, covers, what)
    count = level.get(alpha, 0)
    if count > comps.MAX_REFINEMENTS:
        raise ValueError(f"{what} has {count} maximal chains, past the budget of "
                         f"{comps.MAX_REFINEMENTS}")
    chains = [(beta,)] if count else []
    for _ in steps:
        chains = [chain + (h,) for chain in chains for h in covers(chain[-1])[0]]
    return tuple(chains)


def chain_to_tableau(chain) -> Tableau:
    """Standard skew shin tableau recording at which step each box appeared:
    the bijection of maximal chains with standard skew shin tableaux, which
    the tests check and an exhaustive suite of the skew theorems can use."""
    chain = [tuple(g) for g in chain]
    beta, alpha = chain[0], chain[-1]
    filling = {}
    for step, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1):
        prev = prev + (0,) * (len(cur) - len(prev))
        grown = [i for i in range(len(cur)) if cur[i] != prev[i]]
        if len(grown) != 1 or cur[grown[0]] != prev[grown[0]] + 1:
            raise ValueError("not a saturated box-adding chain")
        r = grown[0]
        filling[(r, cur[r] - 1)] = step
    shape = skew(alpha, beta) if beta else straight(alpha)
    rem = shape.removed
    rows = tuple(
        tuple(filling[(r, c)] for c in range(rem[r], alpha[r]))
        for r in range(len(alpha))
    )
    return Tableau("shin", shape, rows)
