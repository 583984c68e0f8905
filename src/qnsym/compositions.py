"""Integer compositions and the index combinatorics shared by all bases.

A composition of n is a tuple of positive integers summing to n; the empty
tuple is the unique composition of 0.  Compositions of n correspond to
subsets of {1, ..., n-1} via proper partial sums, and most of the maps here
(complement, transpose, refinement) are cleanest in that picture.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb


def check_composition(alpha) -> tuple:
    """Return alpha as a tuple, insisting every part is a positive integer."""
    alpha = tuple(alpha)
    for a in alpha:
        if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
            raise ValueError(f"not a composition: {alpha!r}")
    return alpha


# The dense builders (`core.transition_matrix`, `tableaux.kappa_matrix`) hold
# all 4**(n-1) entries of a whole-degree matrix (4M at n = 12, 16M at 13), so
# they refuse a higher degree before computing anything.
MAX_DENSE_DEGREE = 12


# The budget of every listing or walk that can grow exponentially: refinements
# and coarsenings of one composition (all of degree <= 17), Jacobi-Trudi words,
# the live states of a `tableaux.strip_walk` and the chains of `maximal_chains`.
MAX_REFINEMENTS = 2 ** 16

# One backtracking run over tableau fillings places at most this many
# values in cells (about half a second).
MAX_TABLEAU_STEPS = 2 ** 18


def check_dense_degree(n: int) -> int:
    """Return n, insisting a whole-degree matrix of degree n is in budget."""
    if n > MAX_DENSE_DEGREE:
        raise ValueError(f"degree {n} is past the dense-matrix budget: whole-degree "
                         f"matrices stop at degree {MAX_DENSE_DEGREE}")
    return n


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple:
    """All compositions of n in canonical (lexicographic) order.

    compositions(0) == ((),); compositions(n) has 2**(n-1) entries for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    out.sort()
    return tuple(out)


def set_of(alpha) -> frozenset:
    """Proper partial sums of alpha: {a1, a1+a2, ...} excluding the total."""
    total, sums = 0, []
    for a in alpha[:-1]:
        total += a
        sums.append(total)
    return frozenset(sums)


def comp_of(subset, n: int) -> tuple:
    """Inverse of set_of: the composition of n with partial sums `subset`."""
    prev, parts = 0, []
    for s in sorted(subset):
        if not 0 < s < n:
            raise ValueError(f"subset element {s} not in 1..{n - 1}")
        parts.append(s - prev)
        prev = s
    if n > 0:
        parts.append(n - prev)
    return tuple(parts)


def complement(alpha) -> tuple:
    """Composition whose partial-sum set is the complement in {1, ..., n-1}."""
    n = sum(alpha)
    inside = set_of(alpha)
    return comp_of([s for s in range(1, n) if s not in inside], n)


def reverse(alpha) -> tuple:
    return tuple(reversed(alpha))


def transpose(alpha) -> tuple:
    """Reverse-then-complement (equivalently complement-then-reverse)."""
    return complement(reverse(alpha))


def conjugate(lam) -> tuple:
    """Conjugate of a partition: column lengths of its diagram.

    Distinct from transpose(), which is an involution on all compositions;
    the two agree only on special shapes.
    """
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam!r}")
    return tuple(sum(1 for a in lam if a >= c) for c in range(1, (lam[0] if lam else 0) + 1))


def refines(alpha, beta) -> bool:
    """alpha refines beta: beta is obtained by merging adjacent parts of alpha.
    No production route asks; it is the definition that the tests check
    `coarsenings` and `refinements` against."""
    if sum(alpha) != sum(beta):
        return False
    return set_of(beta) <= set_of(alpha)


def _check_listing(exponent: int, what: str, alpha) -> None:
    """Refuse to list 2**exponent compositions past MAX_REFINEMENTS."""
    if 2 ** min(exponent, 64) > MAX_REFINEMENTS:
        raise ValueError(f"{list(alpha)} has 2^{exponent} {what}, past the budget "
                         f"of {MAX_REFINEMENTS}")


def coarsenings(alpha):
    """All compositions that alpha refines (merge any adjacent runs);
    refused past MAX_REFINEMENTS."""
    alpha = tuple(alpha)
    _check_listing(max(len(alpha) - 1, 0), "coarsenings", alpha)
    n = sum(alpha)
    inner = sorted(set_of(alpha))
    return (comp_of(keep, n) for k in range(len(inner) + 1)
            for keep in combinations(inner, k))


def refinements(beta):
    """All compositions refining beta, each part split independently;
    refused past MAX_REFINEMENTS."""
    beta = tuple(beta)
    _check_listing(sum(beta) - len(beta), "refinements", beta)
    return (sum(heads, ()) for heads in product(*map(compositions, beta)))


def dominated(alpha, beta) -> bool:
    """Entrywise containment: len(alpha) <= len(beta) and alpha_i <= beta_i."""
    alpha, beta = tuple(alpha), tuple(beta)
    return len(alpha) <= len(beta) and all(a <= b for a, b in zip(alpha, beta))


def sort_to_partition(alpha) -> tuple:
    return tuple(sorted(alpha, reverse=True))


def is_partition(lam) -> bool:
    lam = tuple(lam)
    return all(isinstance(a, int) and a > 0 for a in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n, in canonical composition order (ascending lex).

    Generated directly, each part at most the one before it, so the work is
    the p(n) partitions, not the 2**(n-1) compositions a filter would build.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def bounded(m, top):
        # partitions of m with every part <= top, ascending lex
        if m == 0:
            yield ()
            return
        for first in range(1, min(m, top) + 1):
            for rest in bounded(m - first, first):
                yield (first,) + rest

    return tuple(bounded(n, n))


def rearrangements(lam):
    """Each distinct rearrangement of the parts of lam once, in lexicographic
    order: next-permutation on the sorted parts, so the work is the output's
    size, not len(lam)!.  rearrangements(()) yields () once."""
    a = sorted(lam)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def rearrangement_count(lam) -> int:
    """Number of distinct rearrangements of lam: the multinomial
    len(lam)! / prod(m! for each part's multiplicity m)."""
    count, placed = 1, 0
    for m in Counter(lam).values():
        placed += m
        count *= comb(placed, m)
    return count
