"""Self-tests of the benchmark: span arithmetic, the tail rule, the output
checks, the tracer's patching, and agreement with BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qnsym import core, schurlike as sl  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 11.0, 12.0, -1),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"a": 3.0, "b": 6.0, "c": 2.0})


def test_self_times_clip_children_to_the_parent_interval():
    spans = [("a", 0.0, 4.0, -1), ("b", 3.0, 6.0, 0), ("b", 3.5, 5.0, 0)]
    assert tracer.self_times(spans)["a"] == pytest.approx(3.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond, n = run.tail(list(range(100)))
    assert (value, beyond, n) == (89, 10, 100)
    assert pct == pytest.approx(90.0)
    value, pct, beyond, n = run.tail([5.0, 1.0, 3.0])
    assert (value, beyond, n) == (5.0, 0, 3)


def test_cold_cycles_hold_the_same_mix_of_costs_whatever_the_seed():
    def mix(seed):
        cycle = next(workloads.cold_cycles(seed))
        return sorted((sum(comp), basis, direction if sum(comp) > workloads.COLD_DEGREES[0] else "")
                      for basis, direction, comp in cycle)

    assert len(mix(1)) == 40
    assert mix(1) == mix(2)


def _corrupt(y):
    """A wrong output of the same type as y."""
    if y is None:
        return sl.SymElement("s", {(1,): 1})
    if isinstance(y, tuple):
        return (_corrupt(y[0]),) + y[1:]
    if isinstance(y, int):
        return y + 1
    if isinstance(y, dict):
        lam, c = next(iter(y.items()))
        return y | {lam: c + 1}
    if isinstance(y, sl.SymElement):
        lam, c = next(iter(y.coeffs.items()))
        return sl.SymElement(y.basis, y.coeffs | {lam: c + 1})
    if isinstance(y, core.TensorElement):
        key, c = next(iter(y.terms.items()))
        return core.TensorElement(y.algebra, dict(y.terms) | {key: c + 1})
    if y.is_zero():
        return y + core.term(core.CANONICAL[y.algebra], (1,))
    key, c = next(iter(y.terms.items()))
    return core.Element(y.algebra, dict(y.terms) | {key: c + 1})


@pytest.mark.parametrize("workload", ["warm-hopf", "sym-bridge"])
def test_every_warm_check_accepts_the_output_and_rejects_a_corruption(workload):
    cycle = next(workloads.CYCLES[workload](7))
    for op in cycle:
        args = workloads.prepare(op)
        y = workloads.run(op[0], args)
        assert workloads.check(op, args, y), op
        assert not workloads.check(op, args, _corrupt(y)), op


def test_lr_check_tells_a_shape_from_its_conjugate_beyond_degree_7():
    for mu, nu in (((3, 1), (2, 2)), ((2, 1), (1, 1, 1, 1, 1, 1)), ((4, 2), (2, 1))):
        op = ("lr", mu, nu)
        y = sl.littlewood_richardson(mu, nu)
        assert workloads.check(op, (mu, nu), y), op
        flipped = {workloads.conjugate(lam): c for lam, c in y.items()}
        assert flipped != y
        assert not workloads.check(op, (mu, nu), flipped), op


COLD_BASES = workloads.FAMILY_TOKENS + tuple(tok + "*" for tok in workloads.FAMILY_TOKENS)


def _cli_output(op, capsys):
    from qnsym import cli

    assert cli.run(workloads.cold_argv(op)) == 0
    return core.element_from_json(json.loads(capsys.readouterr().out))


def test_cold_check_accepts_the_cli_output_and_rejects_a_corruption(capsys):
    for basis in COLD_BASES:
        for direction in ("expand", "convert"):
            op = (basis, direction, (2, 1, 2))
            y = _cli_output(op, capsys)
            assert workloads.check_cold(op, y), op
            assert not workloads.check_cold(op, _corrupt(y)), op


def _clear_conversion_caches():
    for cached in (sl._kappa_inverse, core._expand, core._unexpand, core.transition_matrix):
        cached.cache_clear()


def test_cold_check_catches_a_wrong_tableau_count(monkeypatch, capsys):
    """With the last column of every K matrix off (the first added to it),
    the CLI's outputs change for every family.  The checks run against the
    same faulty library, as they would in a run, and accept an output
    exactly when it is still right: no check reads the K matrix."""
    from qnsym import tableaux

    ops = [(basis, direction, comp) for basis in COLD_BASES
           for direction in ("expand", "convert") for comp in workloads.compositions(3)]
    right = {op: _cli_output(op, capsys) for op in ops}
    true_kappa = tableaux.kappa_matrix

    def wrong_kappa(family, n):
        rows = true_kappa(family, n)
        return rows if len(rows) < 2 else tuple(r[:-1] + (r[-1] + r[0],) for r in rows)

    monkeypatch.setattr(tableaux, "kappa_matrix", wrong_kappa)
    _clear_conversion_caches()
    workloads.h_expansion.cache_clear()
    try:
        wrong = {op: _cli_output(op, capsys) for op in ops}
        verdicts = {op: workloads.check_cold(op, wrong[op]) for op in ops}
    finally:
        monkeypatch.undo()
        _clear_conversion_caches()
    for basis in COLD_BASES:
        assert any(wrong[op] != right[op] for op in ops if op[0] == basis), basis
    for op in ops:
        assert verdicts[op] == (wrong[op] == right[op]), op


def _attributes():
    out = {}
    for key, module in sorted(sys.modules.items()):
        if key == "qnsym" or key.startswith("qnsym."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(key, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_attribute_and_skips_recursive_spans():
    import qnsym.cli  # noqa: F401  (so that cli's names are patched too)

    before = _attributes()
    shuffle = core.quasi_shuffle
    shuffle.cache_clear()  # force the recursion below
    tr = tracer.Tracer().start()
    assert core.multiply is not before[("qnsym.core", "multiply")]
    assert sl.multiply is core.multiply  # imported by name, patched as well
    core.quasi_shuffle((1, 2, 1), (2, 1, 3))
    unpaused = shuffle.cache_info()
    core.term("sh", (2, 1)).convert("H")
    with tr.paused():
        core.term("R", (1, 1)).convert("H")
        core.quasi_shuffle((3, 1), (1, 1, 2))
    tr.stop()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tr.totals()
    assert totals["calls"]["core.quasi_shuffle"] == 1
    assert totals["calls"]["core.Element.convert"] == 1
    assert unpaused.misses > 1  # the recursion missed the cache
    assert tuple(totals["cache"]["core.quasi_shuffle"]) == (unpaused.hits, unpaused.misses)
    assert totals["absent"] == []


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("core", "no_such_function", ()),))
    tr = tracer.Tracer().start()
    tr.stop()
    assert tr.totals()["absent"] == ["core.no_such_function"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
