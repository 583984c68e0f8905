"""The shared integer-combination layer under Element, TensorElement and
SymElement: vector-space laws, validation at the constructor, read-only
terms, and the integers-only rule for the library's imports."""

import ast
import pathlib
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from qnsym import compositions as comps
from qnsym import core
from qnsym import schurlike as sl
from qnsym.core import NSYM, QSYM, Element, TensorElement, term

SRC = pathlib.Path(core.__file__).parent

coeff = st.integers(-3, 3)


@st.composite
def compositions(draw, max_size=4):
    return draw(st.sampled_from([c for n in range(max_size + 1)
                                 for c in comps.compositions(n)]))


@st.composite
def partitions(draw, max_size=5):
    return draw(st.sampled_from([p for n in range(max_size + 1)
                                 for p in comps.partitions(n)]))


def element_pairs():
    def build(algebra):
        key = st.tuples(st.sampled_from(core.bases(algebra)), compositions())
        one = st.dictionaries(key, coeff, max_size=4).map(lambda t: Element(algebra, t))
        return st.tuples(one, one)

    return st.sampled_from((NSYM, QSYM)).flatmap(build)


def tensor_pairs():
    def build(algebra):
        leg = st.tuples(st.sampled_from(("H", "E") if algebra == NSYM else ("M", "F")),
                        compositions(3))
        one = st.dictionaries(st.tuples(leg, leg), coeff, max_size=3).map(
            lambda t: TensorElement(algebra, t))
        return st.tuples(one, one)

    return st.sampled_from((NSYM, QSYM)).flatmap(build)


def sym_pairs():
    def build(basis):
        one = st.dictionaries(partitions(), coeff, max_size=4).map(
            lambda t: sl.SymElement(basis, t))
        return st.tuples(one, one)

    return st.sampled_from(("m", "h", "s")).flatmap(build)


def coproduct_h1():
    return core.coproduct(term("H", (1,)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(element_pairs(), tensor_pairs(), sym_pairs()))
def test_vector_space_laws(pair):
    x, y = pair
    assert (x + -x).is_zero()
    assert (x - x).is_zero()
    assert (x + y) - y == x
    assert 3 * x == x + x + x
    assert x * 3 == 3 * x
    assert (-1) * x == -x
    assert (0 * x).is_zero()
    assert sum([x, y]) == x + y
    assert sum([x]) == x
    assert x + y == y + x


def test_mixed_spaces_do_not_add():
    with pytest.raises(ValueError):
        term("H", (1,)) + term("M", (1,))
    with pytest.raises(ValueError):
        sl.SymElement("m", {(1,): 1}) + sl.SymElement("s", {(1,): 1})
    with pytest.raises(TypeError):
        term("H", (1,)) + sl.SymElement("m", {(1,): 1})
    with pytest.raises(TypeError):
        term("H", (1,)) + 1


def test_equality_goes_through_the_canonical_form():
    assert term("R", (2,)) == term("H", (2,))
    assert sl.SymElement("s", {(2,): 1}) == sl.SymElement("m", {(2,): 1, (1, 1): 1})
    assert coproduct_h1().convert("E", "E") == coproduct_h1()
    assert term("H", ()) != term("M", ())


def test_elements_are_unhashable():
    for x in (term("H", (1,)), coproduct_h1(), sl.SymElement("m", {(1,): 1})):
        with pytest.raises(TypeError):
            hash(x)


# --- validation at the public constructor ---------------------------------------

@pytest.mark.parametrize("basis", ["H", "sh"])
@pytest.mark.parametrize("comp", [(0, 2), (2, -1), (1.0,), (True, 1)])
def test_element_rejects_non_compositions(basis, comp):
    with pytest.raises(ValueError):
        Element(NSYM, {(basis, comp): 1})


def test_element_rejects_bad_keys_even_with_zero_coefficient():
    with pytest.raises(ValueError):
        Element(NSYM, {("H", (0, 2)): 0})
    with pytest.raises(KeyError):
        Element(NSYM, {("Q", (1,)): 0})


def test_tensor_rejects_non_compositions_on_either_leg():
    good, bad = ("H", (1,)), ("H", (0, 1))
    for key in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            TensorElement(NSYM, {key: 1})
    with pytest.raises(ValueError):
        core.tensor_term("M", (2, 0), "M", (1,))
    with pytest.raises(ValueError):
        TensorElement(NSYM, {(good, ("M", (1,))): 1})  # a QSym leg in NSym


def test_constructor_keeps_its_errors():
    with pytest.raises(KeyError):
        Element(NSYM, {("Q", (1,)): 1})
    with pytest.raises(ValueError):
        Element(QSYM, {("H", (1,)): 1})
    with pytest.raises(ValueError):
        Element("Sym", {})
    with pytest.raises(TypeError):
        Element(NSYM, {("H", (1,)): 0.5})
    with pytest.raises(TypeError):
        TensorElement(NSYM, {(("H", (1,)), ("H", ())): "1"})
    with pytest.raises(ValueError):
        sl.SymElement("m", {(1, 2): 1})
    with pytest.raises(ValueError):
        term("sh", (0, 2))


def test_bools_are_neither_coefficients_nor_parts():
    with pytest.raises(TypeError):
        Element(NSYM, {("H", (1,)): True})
    with pytest.raises(TypeError):
        sl.SymElement("m", {(1,): False})
    with pytest.raises(ValueError):
        sl.SymElement("m", {(True, True): 1})


# --- read-only terms -----------------------------------------------------------

def test_terms_are_read_only_views():
    x = term("H", (1,)) - 2 * term("H", (2,))
    t = coproduct_h1()
    s = sl.SymElement("s", {(2, 1): 1, (3,): -1})
    for view in (x.terms, t.terms, s.coeffs, s.terms):
        assert isinstance(view, MappingProxyType)
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = 0
        with pytest.raises(TypeError):
            del view[key]
    assert not x.is_zero()
    assert str(x) == "H[1] - 2 H[2]"
    with pytest.raises(AttributeError):
        x.algebra = QSYM
    with pytest.raises(AttributeError):
        s.basis = "m"


def test_read_only_views_serve_every_reader():
    x = term("H", (1,)) - 2 * term("H", (2,))
    want = {("H", (1,)): 1, ("H", (2,)): -2}
    assert x.terms == want and want == x.terms
    assert dict(x.terms) == want
    assert sorted(x.terms.items()) == sorted(want.items())
    assert x.terms.get(("H", (2,))) == -2 and x.terms.get(("H", (3,)), 0) == 0
    assert len(x.terms) == 2 and set(x.terms) == set(want)
    s = sl.SymElement("s", {(2, 1): 1})
    assert s.coeffs == {(2, 1): 1} and dict(s.coeffs) == {(2, 1): 1}


# --- integers only ---------------------------------------------------------------

def test_fractions_only_in_exact_inverse_module():
    """Production code computes in the integers: no module in the package
    imports `fractions`."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                importers.add(path.name)
    assert importers == set()


# --- module boundaries and lint ---------------------------------------------------

def test_schurlike_reads_no_private_core_name_but_the_combination_base():
    """The Schur-like bases and their operations go through the registry and
    the public involutions: `core._Combination`, the base of SymElement, is
    the only private core name schurlike may use."""
    tree = ast.parse((SRC / "schurlike.py").read_text())
    private = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "core" and node.attr.startswith("_")):
            private.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("core"):
            private.update(a.name for a in node.names if a.name.startswith("_"))
    assert private <= {"_Combination"}


def _unused_imports(path):
    """Names a module imports but never reads: every Name it loads and the
    root of every dotted name count as reads, and so does a name listed in a
    string annotation."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    """A stand-in for a linter's unused-import rule; the package __init__
    imports to re-export and to register the bases, so it is exempt."""
    unused = {path.name: _unused_imports(path) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_unused_import_scan_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport os.path as osp\nfrom x import a, b\n"
                      "def f(y: 'a') -> None:\n    return osp.join(y)\n")
    assert _unused_imports(module) == [(1, "os"), (3, "b")]
