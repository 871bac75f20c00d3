"""The design decisions that the checks of the paper's two results rest on,
checked on pqlab's source: each invariant is one row of a rule table.

A scope is a dotted path of top-level definitions in one module
("_Stepper.newton_direction"); a rule whose scope is missing fails, so a
rename cannot switch it off.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pqlab"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


@functools.cache
def _source(module: str):
    """The text and the syntax tree of src/pqlab/<module>."""
    text = (SRC / module).read_text(encoding="utf-8")
    return text, ast.parse(text)


def _scope(tree: ast.Module, dotted: str):
    """The definition at the dotted path among tree's top-level names."""
    node = tree
    for name in dotted.split("."):
        found = [child for child in node.body if getattr(child, "name", None) == name
                 and isinstance(child, (ast.ClassDef, ast.FunctionDef))]
        assert found, f"{dotted} is missing"
        node = found[0]
    return node


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _lines(text: str, pattern: str) -> list:
    """The numbers of the lines of text that match pattern."""
    return [i for i, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]


def _reads(node, names) -> list:
    """The nodes under node that read one of names: by name, attribute or import."""
    return [n for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names)
            or (isinstance(n, ast.Attribute) and n.attr in names)
            or (isinstance(n, ast.ImportFrom) and any(a.name in names for a in n.names))]


def _calls(node, names) -> list:
    """The calls under node of one of names, by name or attribute."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and _name(n.func) in names]


def _powers(node) -> list:
    """The powers under node other than a square: a ** or a power call whose
    exponent is not the constant 2."""
    def square(e):
        return isinstance(e, ast.Constant) and type(e.value) in (int, float) and e.value == 2
    return [n for n in ast.walk(node)
            if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and not square(n.right))
            or (isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Pow) and not square(n.value))
            or (isinstance(n, ast.Call) and _name(n.func) in ("power", "float_power")
                and not (len(n.args) > 1 and square(n.args[1])))]


# (pattern, the modules it may appear in)
PATTERNS = {
    # the 2D Newton matrix is factored by LAPACK's band LU (band.py); a
    # SuperLU fork of it, or its flop count and first-step rule, is back
    "no-superlu": (r"splu|scipy\.sparse|_solve_equivalents|first_step", ()),
    # the face rule (_Scheme, _Iterate) and the nodal rule (np.gradient,
    # _partial) live in scheme.py, as did the field wrapper _grad_magnitude
    "gradient-rules": (r"np\.gradient|class _Scheme|class _Iterate"
                       r"|\b_grad_magnitude\b|\b_partial\b", ("scheme.py",)),
    # solver._dual_norm is the one reader of |Du| per node outside scheme.py
    "grad-norm": (r"\b_grad_norm\b", ("scheme.py", "solver.py")),
    # the 2D Newton linear solve has one owner, band.FactorSlot: the factor,
    # its budget, the float32/float64 ladder and defect correction stay in
    # band.py, and solver.py sets only the target
    "band-solve": (r"BandLU|solve_budget|defect_correction|gbtrf|gbtrs|tbsv"
                   r"|stencil_product|half_bandwidth", ("band.py",)),
}

# (names, the module and scope that are their one reader)
ONE_READER = {
    # a new line search (ROADMAP item 10) is a change to this function alone
    "line-search": ({"_ARMIJO", "_MIN_STEP"}, "solver.py", "_line_search"),
    # one forcing rule for the 2D defect correction
    "forcing": ({"_FORCING"}, "solver.py", "_Stepper.newton_direction"),
}

# (finder, names, the module and the scopes in it where the finder must find none)
NEVER_INSIDE = {
    # the Newton step takes the face rule alone
    "face-rule-only": (_reads, {"gradient", "_partial", "_grad_norm"}, "scheme.py", ("_Scheme",)),
    # g = g0(x) psi(t): the energy report takes each datum term as an
    # integral on one level times one of psi or psi', never over the grid
    "datum-factors": (_calls, {"at", "sample", "_integrate_power"}, "solver.py",
                      ("energy_reports", "_dual_norm")),
}


@pytest.mark.parametrize("rule", PATTERNS)
def test_pattern_stays_in_its_modules(rule):
    pattern, allowed = PATTERNS[rule]
    bad = [f"{m}:{i}" for m in MODULES if m not in allowed for i in _lines(_source(m)[0], pattern)]
    assert not bad, f"{pattern!r} outside {allowed}: {bad}"


@pytest.mark.parametrize("rule", ONE_READER)
def test_one_reader(rule):
    names, module, dotted = ONE_READER[rule]
    inside = {id(n) for n in ast.walk(_scope(_source(module)[1], dotted))}
    bad = [f"{m}:{n.lineno}" for m in MODULES for n in _reads(_source(m)[1], names)
           if id(n) not in inside]
    assert not bad, f"{sorted(names)} read outside {module}:{dotted}: {bad}"


@pytest.mark.parametrize("rule", NEVER_INSIDE)
def test_never_inside(rule):
    finder, names, module, scopes = NEVER_INSIDE[rule]
    bad = [f"{module}:{n.lineno}" for dotted in scopes
           for n in finder(_scope(_source(module)[1], dotted), names)]
    assert not bad, f"{scopes} read or call {sorted(names)}: {bad}"


def test_cell_energy_reads_the_one_energy_density():
    # model.energy_density is the one formula for f: cell_energy forms |xi|^2
    # in place and hands it over
    scope = _scope(_source("scheme.py")[1], "_Scheme.cell_energy")
    assert _calls(scope, {"energy_density"}), "_Scheme.cell_energy calls no energy_density"
    bad = [f"scheme.py:{n.lineno}" for n in _powers(scope)]
    assert not bad, f"_Scheme.cell_energy forms a power other than a square: {bad}"


PLANTED = """\
from .solver import _MIN_STEP
def f(x):
    _MIN_STEP = solver._MIN_STEP + x.at(0) ** 2
    x **= 3
    return splu(at(x)) + np.power(x, 2) + np.float_power(x, 0.5) + _MIN_STEP
"""


def test_finders_flag_planted_violations():
    # a finder that matched nothing would let every rule of its kind pass
    tree = ast.parse(PLANTED)
    assert _lines(PLANTED, PATTERNS["no-superlu"][0]) == [5]
    assert _lines("from .band import FactorSlot\nd, _ = _defect_correction(a, b, lu, t)",
                  PATTERNS["band-solve"][0]) == [2]
    assert sorted(n.lineno for n in _reads(tree, {"_MIN_STEP"})) == [1, 3, 5]
    assert sorted(n.lineno for n in _calls(tree, {"at"})) == [3, 5]
    assert sorted(n.lineno for n in _powers(tree)) == [4, 5]
    assert _scope(tree, "f").lineno == 2
    with pytest.raises(AssertionError, match="f.x is missing"):
        _scope(tree, "f.x")
