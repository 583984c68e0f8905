from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qnsym import compositions as comps
from qnsym import tableaux as tab


# --- independent oracle: classical SSYT on partition shapes ----------------

def ssyt_count(lam, weight):
    """Count semistandard Young tableaux of partition shape lam and given
    weight by brute force over row fillings (rows weakly increase, columns
    strictly increase).  Written independently of the library internals."""
    lam = tuple(lam)
    if sum(weight) != sum(lam):
        return 0
    maxv = len(weight)

    def weakly_increasing_rows(length):
        return [
            row
            for row in product(range(1, maxv + 1), repeat=length)
            if all(a <= b for a, b in zip(row, row[1:]))
        ]

    count = 0

    def fill(r, prev_rows, used):
        nonlocal count
        if r == len(lam):
            if list(used) == list(weight):
                count += 1
            return
        for row in weakly_increasing_rows(lam[r]):
            if prev_rows and any(prev_rows[-1][c] >= row[c] for c in range(lam[r])):
                continue
            new_used = list(used)
            ok = True
            for v in row:
                new_used[v - 1] += 1
                if new_used[v - 1] > weight[v - 1]:
                    ok = False
            if ok:
                fill(r + 1, prev_rows + [row], new_used)

    fill(0, [], [0] * maxv)
    return count


def test_shin_on_partition_shapes_is_ssyt():
    for n in range(1, 6):
        for lam in comps.partitions(n):
            for w in comps.compositions(n):
                assert tab.count_K("shin", lam, w) == ssyt_count(lam, w)


# --- shapes -----------------------------------------------------------------

def test_shape_removed_and_cells():
    s = tab.skew((1, 3, 2), (1, 2))
    assert s.removed == (1, 2, 0)
    assert s.size == 3
    assert s.cells() == [(1, 2), (2, 0), (2, 1)]
    s2 = tab.skew2((3, 4, 4), (2, 1))
    assert s2.removed == (0, 2, 1)
    assert tab.straight((2, 1)).removed == (0, 0)


def test_shapes_and_tableaux_are_immutable_values():
    shape = tab.straight((2, 2))
    assert shape.inner == () and shape == tab.Shape("straight", (2, 2))
    found = tab.enumerate_tableaux(shape, "shin", (1, 1, 2))
    again = tab.enumerate_tableaux(tab.straight((2, 2)), "shin", (1, 1, 2))
    assert len(set(found)) == len(found) and set(found) == set(again)
    standard = tab.enumerate_standard(tab.skew((3, 1), (1,)), "backward")
    assert len(standard) == 3 and len(set(standard)) == len(standard)
    with pytest.raises(AttributeError):
        shape.inner = (1,)
    with pytest.raises(AttributeError):
        found[0].rows = ()
    assert found[0].rows == ((1, 2), (3, 3))


def test_shape_containment_errors():
    with pytest.raises(ValueError):
        tab.skew((2, 1), (3,))
    with pytest.raises(ValueError):
        tab.skew2((2, 1, 3), (1, 2, 1))  # middle row too short from the bottom
    tab.skew2((2, 3, 3), (1, 2))  # fine


def test_chain_legality():
    assert tab.is_chain_legal(tab.skew((2, 1), (1, 1)))
    assert tab.is_chain_legal(tab.skew((3, 3), (2, 2)))
    assert not tab.is_chain_legal(tab.skew((2, 2), (1, 2)))
    assert tab.is_chain_legal(tab.skew2((2, 3, 3), (1, 2)))
    assert not tab.is_chain_legal(tab.skew2((2, 3, 3), (2, 1)))


def _removed_and_chain_legal_by_kind(shape):
    """The reference: the removed boxes by three branches, and skew and
    skew-II legality as two mirrored double loops."""
    outer, inner = shape.outer, shape.inner
    k = len(outer)
    if shape.kind == "skew":
        rem = inner + (0,) * (k - len(inner))
        return rem, not any(outer[i] > rem[i] and rem[j] > rem[i]
                            for i in range(k) for j in range(i + 1, k))
    if shape.kind == "skew2":
        rem = (0,) * (k - len(inner)) + inner
        return rem, not any(rem[i] > rem[j] and outer[j] > rem[j]
                            for i in range(k) for j in range(i + 1, k))
    return (0,) * k, True


def test_chain_legality_is_the_skew_rule_read_on_reversed_rows():
    """One rule, and one padding of the removed boxes, against the
    by-kind reference on every straight, skew and skew-II shape with an
    outer shape of degree <= 8."""
    shapes = {"straight": 0, "skew": 0, "skew2": 0}
    for n in range(9):
        for outer in comps.compositions(n):
            candidates = [tab.straight(outer)]
            for m in range(n + 1):
                for inner in comps.compositions(m):
                    for make in (tab.skew, tab.skew2):
                        try:
                            candidates.append(make(outer, inner))
                        except ValueError:  # inner does not fit
                            pass
            for shape in candidates:
                shapes[shape.kind] += 1
                got = shape.removed, tab.is_chain_legal(shape)
                assert got == _removed_and_chain_legal_by_kind(shape), shape
    assert shapes == {"straight": 256, "skew": 3925, "skew2": 3925}


# --- validation and enumeration ---------------------------------------------

def test_validate_by_family():
    sh = tab.straight((2, 3))
    assert tab.validate(tab.Tableau("shin", sh, ((1, 1), (2, 2, 3))))
    assert not tab.validate(tab.Tableau("shin", sh, ((1, 1), (1, 2, 3))))  # col tie
    assert tab.validate(tab.Tableau("row_strict", sh, ((1, 2), (1, 2, 3))))
    assert not tab.validate(tab.Tableau("row_strict", sh, ((1, 1), (2, 2, 3))))
    assert tab.validate(tab.Tableau("flipped", sh, ((1, 1), (2, 2, 2))))
    assert tab.validate(tab.Tableau("backward", sh, ((2, 1), (3, 2, 1))))
    assert not tab.validate(tab.Tableau("backward", sh, ((2, 1), (1, 2, 3))))


def test_column_rule_skips_short_rows():
    # shape (2,1,2): column 2 pairs rows 1 and 3 directly
    sh = tab.straight((2, 1, 2))
    assert tab.validate(tab.Tableau("shin", sh, ((1, 2), (2,), (3, 3))))
    assert not tab.validate(tab.Tableau("shin", sh, ((1, 3), (2,), (3, 3))))


def test_hand_counts():
    assert tab.count_K("shin", (1, 2), (1, 2)) == 1
    assert tab.count_K("shin", (1, 2), (2, 1)) == 0
    assert tab.count_K("shin", (1, 2), (1, 1, 1)) == 1
    assert tab.count_K("shin", (2, 2), (2, 2)) == 1
    assert tab.count_K("shin", (2, 2), (1, 1, 1, 1)) == 2
    assert tab.count_K("backward", (2,), (1, 1)) == 1
    assert tab.count_K("backward", (2,), (2,)) == 0
    assert tab.count_K("backward", (1, 1), (2,)) == 1
    assert tab.count_K("backward", (1, 1), (1, 1)) == 1
    # weak types are allowed
    assert tab.count_K("shin", (1, 2), (1, 0, 2)) == 1
    assert tab.count_K("shin", (3, 4), (1, 2, 1, 1, 2)) == 3


def test_enumeration_is_lex_ordered_and_valid():
    for family in tab.FAMILIES:
        for shape in (tab.straight((2, 2)), tab.skew((1, 3), (1,))):
            ts = tab.enumerate_standard(shape, family)
            words = [sum(t.rows, ()) for t in ts]
            assert words == sorted(words)
            assert all(tab.validate(t) for t in ts)
            assert len(set(words)) == len(words)


def test_empty_shape():
    empty = tab.straight(())
    assert tab.count_tableaux(empty, "shin", ()) == 1
    t = tab.enumerate_standard(empty, "flipped")[0]
    assert tab.descent_composition(t) == ()


# --- descents, standard sets, standardization --------------------------------

def test_descent_composition_examples():
    t = tab.Tableau("shin", tab.straight((1, 2)), ((1,), (2, 3)))
    assert tab.validate(t)
    assert tab.descent_composition(t) == (1, 2)
    u = tab.Tableau("row_strict", tab.straight((1, 2)), ((1,), (2, 3)))
    assert tab.descent_composition(u) == (2, 1)  # complement of (1,2)


def test_standard_sets_coincide_in_pairs():
    for n in range(0, 6):
        for alpha in comps.compositions(n):
            shape = tab.straight(alpha)
            shin_rows = {t.rows for t in tab.enumerate_standard(shape, "shin")}
            rs_rows = {t.rows for t in tab.enumerate_standard(shape, "row_strict")}
            assert shin_rows == rs_rows
            fl_rows = {t.rows for t in tab.enumerate_standard(shape, "flipped")}
            bw_rows = {t.rows for t in tab.enumerate_standard(shape, "backward")}
            assert fl_rows == bw_rows
            # descent sets are complementary within each pair
            for rows in shin_rows:
                a = tab.descent_composition(tab.Tableau("shin", shape, rows))
                b = tab.descent_composition(tab.Tableau("row_strict", shape, rows))
                assert b == comps.complement(a)
            for rows in fl_rows:
                a = tab.descent_composition(tab.Tableau("flipped", shape, rows))
                b = tab.descent_composition(tab.Tableau("backward", shape, rows))
                assert b == comps.complement(a)


# --- flip --------------------------------------------------------------------

def test_flip_examples():
    t = tab.Tableau("shin", tab.straight((3, 2)), ((1, 3, 4), (2, 5)))
    assert tab.validate(t)
    f = tab.flip(t)
    assert f.shape == tab.straight((2, 3))
    assert f.rows == ((4, 1), (5, 3, 2))
    assert tab.validate(f)
    assert tab.descent_composition(f) == comps.reverse(tab.descent_composition(t))


def test_flip_is_a_descent_reversing_bijection():
    for n in range(1, 6):
        for alpha in comps.compositions(n):
            shape = tab.straight(alpha)
            images = set()
            for t in tab.enumerate_standard(shape, "shin"):
                f = tab.flip(t)
                assert f.shape.outer == comps.reverse(alpha)
                assert tab.validate(f)
                assert tab.descent_composition(f) == comps.reverse(
                    tab.descent_composition(t)
                )
                images.add(f.rows)
            target = tab.enumerate_standard(tab.straight(comps.reverse(alpha)), "flipped")
            assert images == {t.rows for t in target}


def test_flip_on_skew_shapes():
    outer, inner = (2, 3), (1,)
    shape = tab.skew(outer, inner)
    for t in tab.enumerate_standard(shape, "shin"):
        f = tab.flip(t)
        assert f.shape == tab.skew2((3, 2), (1,))
        assert tab.validate(f)


# --- strips, covers, chains ---------------------------------------------------

def test_strip_extensions_example():
    assert tab.strip_extensions((2, 3, 1), 2) == (
        (2, 3, 1, 2),
        (2, 3, 2, 1),
        (2, 3, 3),
        (2, 4, 1, 1),
        (2, 4, 2),
        (2, 5, 1),
    )


def test_strip_edge_cases():
    assert tab.strip_extensions((), 3) == ((3,),)
    assert tab.strip_extensions((2,), 0) == ((2,),)
    assert tab.is_shin_strip((2, 3, 1), (2, 5, 1))
    assert not tab.is_shin_strip((2, 3, 1), (3, 3, 1))  # row 2 overhangs row 1's growth
    assert not tab.is_shin_strip((1, 2), (2, 2))
    assert not tab.is_shin_strip((2,), (2, 1, 1))  # two new rows


def test_poset_covers():
    # the covers of the box-adding order are the strips of one box
    assert tab.strip_extensions((1, 2), 1) == ((1, 2, 1), (1, 3))
    assert tab.strip_extensions((), 1) == ((1,),)


def test_chain_to_tableau_example():
    chain = [(2, 1), (3, 1), (3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1)]
    t = tab.chain_to_tableau(chain)
    assert t.shape == tab.skew((3, 4, 1), (2, 1))
    assert t.rows == ((1,), (3, 4, 5), (2,))
    assert tab.validate(t) and t.is_standard()


def test_chains_biject_with_standard_skew_tableaux():
    for n in range(1, 6):
        for alpha in comps.compositions(n):
            for m in range(0, n + 1):
                for beta in comps.compositions(m):
                    chains = tab.maximal_chains(beta, alpha)
                    if not comps.dominated(beta, alpha):
                        assert chains == ()
                        continue
                    shape = (
                        tab.skew(alpha, beta) if beta else tab.straight(alpha)
                    )
                    expected = (
                        len(tab.enumerate_standard(shape, "shin"))
                        if tab.is_chain_legal(shape)
                        else 0
                    )
                    assert len(chains) == expected
                    tableaux = {tab.chain_to_tableau(c).rows for c in chains}
                    assert len(tableaux) == len(chains)
                    for c in chains:
                        t = tab.chain_to_tableau(c)
                        assert tab.validate(t) and t.is_standard()


def test_maximal_chains_count_as_strip_chains_of_one_box_steps(monkeypatch):
    # the count that guards the listing, against the listing, for every pair
    # through degree 6; then, with the budget lowered to 10, the listing is
    # refused exactly where it would hold more than 10 chains
    listed = {}
    for n in range(7):
        for alpha in comps.compositions(n):
            for m in range(n + 1):
                for beta in comps.compositions(m):
                    chains = len(tab.maximal_chains(beta, alpha))
                    (_, counts), = tab.strip_chains(
                        beta, [(1,) * (n - m)], lambda g: comps.dominated(g, alpha))
                    assert counts.get(alpha, 0) == chains, (beta, alpha)
                    listed[beta, alpha] = chains
    monkeypatch.setattr(comps, "MAX_REFINEMENTS", 10)
    for (beta, alpha), chains in listed.items():
        if chains > 10:
            with pytest.raises(ValueError, match=f"has {chains} maximal chains"):
                tab.maximal_chains(beta, alpha)
        else:
            assert len(tab.maximal_chains(beta, alpha)) == chains, (beta, alpha)


def _chains_depth_first(beta, alpha):
    """The listing the level-by-level one replaced: a depth-first search
    over the covers inside alpha, which strips again at every node."""
    chains = []

    def grow(chain):
        if chain[-1] == alpha:
            chains.append(tuple(chain))
            return
        for nxt in tab.strip_extensions(chain[-1], 1):
            if comps.dominated(nxt, alpha):
                chain.append(nxt)
                grow(chain)
                chain.pop()

    if comps.dominated(beta, alpha):
        grow([beta])
    return tuple(chains)


def test_maximal_chains_match_the_depth_first_listing():
    # every pair through degree 7, chains compared in order; and the rule by
    # which the listing prunes its steps, checked against the search, which
    # never asks it: beta reaches alpha exactly when a chain joins them
    pairs = 0
    for n in range(8):
        for alpha in comps.compositions(n):
            for m in range(n + 1):
                for beta in comps.compositions(m):
                    want = _chains_depth_first(beta, alpha)
                    assert tab.maximal_chains(beta, alpha) == want
                    reaches = comps.dominated(beta, alpha) and \
                        tab.is_chain_legal(tab.Shape("skew", alpha, beta))
                    assert reaches == bool(want), (beta, alpha)
                    pairs += 1
    assert pairs == 10923


def test_maximal_chains_refuse_past_the_budget_and_list_below_it():
    import time

    # 1662804 chains at (5,5,5,5): counted in milliseconds, never listed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="has 1662804 maximal chains, past the budget of 65536"):
        tab.maximal_chains((), (5, 5, 5, 5))
    assert time.perf_counter() - start < 2.0
    # counted, then listed along shapes that reach (4,4,4,4), each cover found once
    start = time.perf_counter()
    assert len(tab.maximal_chains((), (4, 4, 4, 4))) == 24024
    assert time.perf_counter() - start < 2.0


def test_maximal_chains_refuse_before_listing_or_covering_every_shape(monkeypatch):
    # 194481 shapes fit inside (20,20,20,20), but only those that reach it are
    # stepped to and covered; the count is f^(20^4) by the hook length formula
    true_strips, calls = tab.strip_extensions, []

    def recording(alpha, r):
        calls.append(alpha)
        return true_strips(alpha, r)

    monkeypatch.setattr(tab, "strip_extensions", recording)
    with pytest.raises(ValueError, match="has 237782242855131552280114384701056328000 "
                                         "maximal chains, past the budget of 65536"):
        tab.maximal_chains((), (20, 20, 20, 20))
    assert len(calls) < 20000


# --- the shin K matrix from strip chains, against the old routes ---------------

def _strips_by_filtering(alpha, r):
    """The earlier strip route, kept as the reference: every way to share r
    boxes among the rows of alpha and one new row, kept if `is_shin_strip`."""
    def weak(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in weak(total - first, parts - 1):
                yield (first,) + rest

    found = {alpha} if r == 0 else set()
    for extra_row in (0, 1):
        for d in weak(r, len(alpha) + extra_row):
            if r and not (extra_row and d[-1] == 0):
                beta = tuple(a + e for a, e in zip(alpha + (0,) * extra_row, d))
                if tab.is_shin_strip(alpha, beta):
                    found.add(beta)
    return tuple(sorted(found))


def test_strip_extensions_match_the_filtering_route():
    for m in range(7):
        for alpha in comps.compositions(m):
            for r in range(6):
                assert tab.strip_extensions(alpha, r) == _strips_by_filtering(alpha, r)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strip_chain_entry_equals_the_backtracking_count(data):
    n = data.draw(st.integers(0, 7))
    cs = comps.compositions(n)
    i = data.draw(st.integers(0, len(cs) - 1))
    j = data.draw(st.integers(0, len(cs) - 1))
    assert tab.kappa_matrix("shin", n)[i][j] == tab.count_K("shin", cs[i], cs[j])


def test_dense_builders_refuse_a_degree_past_the_budget():
    top = comps.MAX_DENSE_DEGREE
    assert top >= 12
    for family in tab.FAMILIES:
        with pytest.raises(ValueError, match="budget"):
            tab.kappa_matrix(family, top + 1)


def _strip_chain_counts(n):
    """The earlier shin K route, kept as the reference: column beta of K as
    {alpha: K[alpha][beta]}, for every composition beta of size <= n."""
    chains = {(): {(): 1}}
    strips = {}
    for m in range(1, n + 1):
        for beta in comps.compositions(m):
            r, counts = beta[-1], {}
            for gamma, c in chains[beta[:-1]].items():
                ext = strips.get((gamma, r))
                if ext is None:
                    ext = strips[gamma, r] = tab.strip_extensions(gamma, r)
                for delta in ext:
                    counts[delta] = counts.get(delta, 0) + c
            chains[beta] = counts
    return chains


def _kostka_by_column_dp(n):
    """The earlier Kostka route, kept as the reference: strip chains kept on
    partition shapes, columns memoised on prefixes, strips listed afresh."""
    ps = comps.partitions(n)
    chains = {(): {(): 1}}

    def column(mu):
        if mu not in chains:
            counts = {}
            for gamma, c in column(mu[:-1]).items():
                for delta in tab.strip_extensions(gamma, mu[-1]):
                    if comps.is_partition(delta):
                        counts[delta] = counts.get(delta, 0) + c
            chains[mu] = counts
        return chains[mu]

    columns = [column(mu) for mu in ps]
    return tuple(tuple(col.get(lam, 0) for col in columns) for lam in ps)


def test_chain_matrix_matches_the_earlier_shin_and_kostka_routes():
    columns = _strip_chain_counts(10)
    for n in range(11):
        cs = comps.compositions(n)
        want = tuple(tuple(columns[b].get(a, 0) for b in cs) for a in cs)
        assert tab.chain_matrix(cs) == want, n
    for n in range(15):
        assert tab.chain_matrix(comps.partitions(n), comps.is_partition) == \
            _kostka_by_column_dp(n), n

