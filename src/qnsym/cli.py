"""Command-line interface.

Element literals follow the output format: an optional integer coefficient,
a basis token, and a bracketed composition, joined by + and - ("sh[3,2]",
"2 H[1,2] - M[]").  Compositions may be written "[1,3,4]" or bare "1,3,4".
Exit status 0 means success, 1 a domain error, 2 a usage error (unknown
basis, malformed composition, cross-algebra request, unknown identity), and
141 (128 + SIGPIPE, as a shell reports a command that a closed pipe ends)
that standard output closed before the output was written, as it does under
`| head`; that case prints nothing on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import core
from . import schurlike as sl
from . import tableaux as tab
from .core import Element, antipode, coproduct, involution, multiply, pair


class CLIError(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


def fmt_comp(c) -> str:
    return "[" + ",".join(str(p) for p in c) + "]"


def integer(text: str) -> int:
    """int() of ASCII digits with an optional minus sign only: int() itself
    also takes "1_0", "+2" and the digits of other scripts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_composition(text: str, allow_empty: bool = True) -> tuple:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        if allow_empty:
            return ()
        raise CLIError(2, "empty composition not allowed here")
    try:
        parts = tuple(integer(p.strip()) for p in body.split(","))
    except ValueError:
        raise CLIError(2, f"malformed composition {text!r}") from None
    if any(p <= 0 for p in parts):
        raise CLIError(2, f"malformed composition {text!r}: parts must be positive")
    return parts


_TERM_RE = re.compile(r"\s*(?:([+-])\s*)?([0-9]+)?\s*([A-Za-z]+\*?)\s*\[([^\]]*)\]")


def algebra_of(token: str) -> str:
    try:
        return core.algebra_of(token)
    except (KeyError, ValueError):
        raise CLIError(2, f"unknown basis token {token!r}") from None


def parse_element(text: str) -> Element:
    pos, first = 0, True
    algebra = None
    terms = {}
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise CLIError(2, f"malformed element {text!r} (at offset {pos})")
        sign, coeff_s, token, comp_s = m.groups()
        if sign is None and not first:
            raise CLIError(2, f"malformed element {text!r}: terms must be "
                              "joined by + or -")
        alg = algebra_of(token)
        if algebra is None:
            algebra = alg
        elif alg != algebra:
            raise CLIError(2, f"cross-algebra element: {token!r} is {alg}, "
                              f"earlier terms are {algebra}")
        comp = parse_composition(comp_s)
        coeff = int(coeff_s) if coeff_s else 1
        if sign == "-":
            coeff = -coeff
        key = (token, comp)
        terms[key] = terms.get(key, 0) + coeff
        pos = m.end()
        first = False
    if algebra is None:
        raise CLIError(2, f"malformed element {text!r}: no terms")
    return Element(algebra, terms)


def emit(args, text_value, json_value):
    if args.json:
        print(json.dumps(json_value))
    else:
        print(text_value)


def emit_lines(args, lines, json_value):  # json_value() is built only for --json
    if args.json:
        print(json.dumps(json_value()))
    else:
        for line in lines:
            print(line)


def emit_element(args, x):
    emit(args, str(x), x.to_json_dict())


def require_algebra(x: Element, algebra: str, what: str):
    if x.algebra != algebra:
        raise CLIError(2, f"{what} expects a {algebra} element, got {x.algebra}")


def target_basis(args, x: Element, default=None):
    token = getattr(args, "basis", None)
    if token is None:
        return default
    alg = algebra_of(token)
    if alg != x.algebra:
        raise CLIError(2, f"cannot express a {x.algebra} element in basis "
                          f"{token!r} ({alg})")
    return token


# --- command handlers -----------------------------------------------------

def cmd_convert(args):  # expand and convert, where --basis is required
    x = parse_element(args.element)
    emit_element(args, x.convert(target_basis(args, x, default=core.CANONICAL[x.algebra])))


def cmd_multiply(args):
    x, y = parse_element(args.left), parse_element(args.right)
    if x.algebra != y.algebra:
        raise CLIError(2, "cannot multiply elements of different algebras")
    basis = target_basis(args, x)
    emit_element(args, multiply(x, y, basis=basis))


def cmd_pair(args):
    h, f = parse_element(args.left), parse_element(args.right)
    if h.algebra == core.QSYM and f.algebra == core.NSYM:
        raise CLIError(2, "pair takes the NSym element first, then the QSym one")
    if h.algebra != core.NSYM or f.algebra != core.QSYM:
        raise CLIError(2, "pair needs one NSym and one QSym element")
    value = pair(h, f)
    emit(args, str(value), {"value": str(value)})


def cmd_involute(args):
    x = parse_element(args.element)
    emit_element(args, involution(args.name, x, basis=target_basis(args, x)))


def cmd_antipode(args):
    x = parse_element(args.element)
    emit_element(args, antipode(x, basis=target_basis(args, x)))


def cmd_pieri(args):
    alpha = parse_composition(args.alpha)
    emit_element(args, sl.pieri(args.family, alpha, args.r))


def cmd_beth(args):
    x = parse_element(args.element)
    require_algebra(x, core.NSYM, "beth")
    emit_element(args, sl.beth(args.m, x))


def cmd_jacobi_trudi(args):
    beta = parse_composition(args.beta, allow_empty=False)
    emit_element(args, sl.jacobi_trudi(args.family, beta))


def cmd_ribbon_mult(args):
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    emit_element(args, sl.ribbon_multiply(args.family, alpha, beta))


def cmd_skew(args):  # skew and skew2, told apart by args.peel
    outer = parse_composition(args.outer)
    inner = parse_composition(args.inner)
    emit_element(args, args.peel(args.family, outer, inner))


def cmd_coproduct(args):
    result = coproduct(parse_element(args.element))
    emit(args, str(result), result.to_json_dict())


def cmd_struct_coeffs(args):
    beta = parse_composition(args.beta)
    gamma = parse_composition(args.gamma)
    coeffs = sl.structure_coeffs(args.family, beta, gamma)
    emit_lines(args, (f"{args.family}{fmt_comp(c.alpha)}: {c.value}" for c in coeffs),
               lambda: [{"alpha": list(c.alpha), "beta": list(c.beta), "gamma": list(c.gamma),
                         "value": str(c.value)} for c in coeffs])


def cmd_chi(args):
    x = parse_element(args.element)
    require_algebra(x, core.NSYM, "chi")
    image = sl.forgetful_chi(x)
    if args.basis is not None:
        if args.basis not in ("m", "h", "s"):
            raise CLIError(2, f"unknown Sym basis {args.basis!r}")
        image = image.to_basis(args.basis)
    emit(args, str(image), image.to_json_dict())


def cmd_schur_detect(args):
    x = parse_element(args.element)
    require_algebra(x, core.QSYM, "schur-detect")
    detected = sl.schur_detect(x)
    if detected is None:
        emit(args, "not symmetric", {"symmetric": False})
    else:
        emit(args, str(detected),
             {"symmetric": True, "expansion": detected.to_json_dict()})


def _shape_from_args(args):
    outer = parse_composition(args.shape)
    if args.inner is None:
        if args.bottom:
            raise CLIError(2, "--bottom needs --inner")
        return tab.straight(outer)
    inner = parse_composition(args.inner)
    if args.bottom:
        return tab.skew2(outer, inner)
    return tab.skew(outer, inner)


def cmd_tableaux(args):
    shape = _shape_from_args(args)
    if (args.type is None) == (not args.standard):
        raise CLIError(2, "give exactly one of --type or --standard")
    type_vec = (1,) * shape.size if args.standard else parse_composition(args.type)
    family = sl.family_name(args.family)
    if args.mode == "count":
        count = tab.count_tableaux(shape, family, type_vec)
        emit(args, str(count), {"count": count})
        return
    found = tab.enumerate_tableaux(shape, family, type_vec)
    emit_lines(args, (",".join(map(fmt_comp, t.rows)) for t in found),
               lambda: [t.to_json_dict() for t in found])


def cmd_strips(args):
    alpha = parse_composition(args.alpha)
    betas = tab.strip_extensions(alpha, args.r)
    emit_lines(args, map(fmt_comp, betas), lambda: [list(b) for b in betas])


def cmd_poset_chains(args):
    beta = parse_composition(args.beta)
    alpha = parse_composition(args.alpha)
    chains = tab.maximal_chains(beta, alpha)
    emit_lines(args, (" -> ".join(map(fmt_comp, chain)) for chain in chains),
               lambda: [[list(c) for c in chain] for chain in chains])


def cmd_transition_matrix(args):
    if algebra_of(args.source) != algebra_of(args.target):
        raise CLIError(2, "source and target bases live in different algebras")
    matrix = core.transition_matrix(args.source, args.target, args.degree)
    emit_lines(args, (f"{fmt_comp(comp)} | " + " ".join(map(str, row))
                      for comp, row in zip(matrix.indices, matrix.rows)),
               lambda: {"source": matrix.source, "target": matrix.target,
                        "degree": matrix.degree, "indices": [list(c) for c in matrix.indices],
                        "rows": [[str(v) for v in row] for row in matrix.rows]})


def cmd_verify(args):
    if args.max_degree is not None and args.max_degree < 1:
        raise CLIError(2, f"--max-degree must be at least 1, got {args.max_degree}")
    from . import verify as verify_mod  # the suites load only when asked for

    if args.identity is None:
        names = sorted(verify_mod.IDENTITIES)
    else:
        names = [n.strip() for n in args.identity.split(",")]
        for n in names:
            if n not in verify_mod.IDENTITIES:
                raise CLIError(2, f"unknown identity {n!r}; choose from "
                                  f"{', '.join(sorted(verify_mod.IDENTITIES))}")
    reports = [verify_mod.verify(n, max_degree=args.max_degree) for n in names]
    if args.json:
        print(json.dumps([
            {"identity": r.identity, "max_degree": r.max_degree,
             "cases": r.cases, "failures": list(r.failures)} for r in reports]))
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.failures)} failures"
            print(f"{r.identity}: degrees <= {r.max_degree}, "
                  f"{r.cases} cases, {status}")
            for failure in r.failures:
                print(f"  {failure}")
    for r in reports:
        print(f"{r.identity}: {r.seconds:.2f}s", file=sys.stderr)
    return 1 if any(not r.ok for r in reports) else 0


# --- parser wiring ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")

    parser = argparse.ArgumentParser(
        prog="qnsym",
        description="Exact computations in QSym and NSym with the four "
                    "Schur-like dual basis pairs.")
    sub = parser.add_subparsers(dest="command", required=True)
    families = tuple(sl.FAMILY_OF_TOKEN)

    def add(name, handler, *positionals, family=False, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=handler)
        if family:
            p.add_argument("--family", required=True, choices=families)
        for positional in positionals:
            p.add_argument(positional)
        return p

    p = add("expand", cmd_convert, "element", help="expand an element in a basis")
    p.add_argument("--basis", help="target basis (default: H or M)")
    p = add("convert", cmd_convert, help="rewrite an element in another basis")
    p.add_argument("--basis", required=True)
    p.add_argument("element")
    p = add("multiply", cmd_multiply, "left", "right", help="product of two elements")
    p.add_argument("--basis")
    add("pair", cmd_pair, "left", "right", help="duality pairing of an NSym and a QSym element")

    p = add("involute", cmd_involute, help="apply psi, rho, or omega")
    p.add_argument("name", choices=("psi", "rho", "omega"))
    p.add_argument("element")
    p.add_argument("--basis")
    p = add("antipode", cmd_antipode, "element", help="apply the Hopf antipode")
    p.add_argument("--basis")

    p = add("pieri", cmd_pieri, "alpha", family=True,
            help="multiply a family basis element by H_r or E_r")
    p.add_argument("r", type=integer)
    p = add("beth", cmd_beth, help="apply the creation operator to an NSym element")
    p.add_argument("m", type=integer)
    p.add_argument("element")
    add("jacobi-trudi", cmd_jacobi_trudi, "beta", family=True,
        help="signed H/E-word expansion for a monotone index")
    add("ribbon-mult", cmd_ribbon_mult, "alpha", "beta", family=True,
        help="multiply a family basis element by a ribbon")
    p = add("skew", cmd_skew, "outer", "inner", family=True,
            help="skew function of a family: the perp of its dual pair")
    p.set_defaults(peel=sl.skew)
    p = add("skew2", cmd_skew, "outer", "inner", family=True,
            help="skew-II function of a family: the right-perp of its dual pair")
    p.set_defaults(peel=sl.skew_ii)
    add("coproduct", cmd_coproduct, "element", help="Hopf coproduct of an element")
    add("struct-coeffs", cmd_struct_coeffs, "beta", "gamma", family=True,
        help="expansion coefficients of a product of two family elements")

    p = add("chi", cmd_chi, "element", help="project an NSym element onto Sym")
    p.add_argument("--basis", help="m, h, or s (default: h)")
    add("schur-detect", cmd_schur_detect, "element",
        help="Schur expansion of a symmetric QSym element, if symmetric")

    p = add("tableaux", cmd_tableaux, help="enumerate or count family tableaux")
    p.add_argument("mode", choices=("enumerate", "count"))
    p.add_argument("--family", required=True,
                   choices=tab.FAMILIES + families)
    p.add_argument("shape")
    p.add_argument("--inner", help="inner shape for a skew diagram")
    p.add_argument("--bottom", action="store_true",
                   help="align the inner shape with the bottom rows (skew-II); needs --inner")
    p.add_argument("--type", help="type (weight) composition")
    p.add_argument("--standard", action="store_true")
    p = add("strips", cmd_strips, "alpha", help="strip extensions of a composition")
    p.add_argument("r", type=integer)
    add("poset-chains", cmd_poset_chains, "beta", "alpha",
        help="maximal chains between compositions in the strip poset")

    p = add("transition-matrix", cmd_transition_matrix, "source", "target",
            help="exact change-of-basis matrix at a degree")
    p.add_argument("degree", type=integer)
    p = add("verify", cmd_verify, help="run identity suites")
    p.add_argument("--identity", help="comma-separated names (default: all)")
    p.add_argument("--max-degree", type=integer)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
    except (CLIError, ValueError, ArithmeticError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            exc = CLIError(1, "the input is too deep, past the recursion limit")
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "status", 1)
    return 0 if status is None else status


def main() -> int:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: no traceback, and no flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
