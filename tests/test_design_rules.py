"""The package's "one ..." design rules, checked on the syntax trees of `src/qtlattice`.

Each rule names the module and the top-level function that own one piece of logic, and fails
where a copy of it appears anywhere else.  A rule whose breach a behaviour test already catches
is left to that test: a rescale inside `sturm_count`, for one, fails
`test_metrics.py::test_each_verdict_rescales_once`.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qtlattice"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
# names of deleted code, which must not come back
BANNED = {"_pivot_threshold", "_gamma_bisection", "BISECTION_WIDTH", "_SCALE_ABOVE",
          "tridiagonal_definiteness", "_cholesky_definiteness"}


@functools.cache
def _nodes(module: str) -> list:
    """(name of the top-level def or class that holds it, else None; node) for every node."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [(getattr(top, "name", None), node) for top in tree.body for node in ast.walk(top)]


def _places(match, modules=MODULES) -> list:
    """(module, top-level def) of every node that `match` accepts, in file order."""
    return [(module, owner) for module in modules for owner, node in _nodes(module) if match(node)]


def _name(node):
    """The identifier that a node reads, binds or defines, else None."""
    for field in ("id", "attr", "name", "arg"):
        if isinstance(getattr(node, field, None), str):
            return getattr(node, field)
    return None


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _name(node.func) == name


def _root(node):
    """The name an expression such as theta.matrix[0] starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return _name(node)


def test_no_deleted_name_or_shared_work_buffer_returns():
    assert _places(lambda node: _name(node) in BANNED) == []
    assert _places(lambda node: isinstance(node, ast.keyword)
                   and (node.arg, _name(node.value)) == ("out", "buffer")) == []


def test_one_input_gate():
    """`_size` is the one module where outside input becomes an array: no other calls asarray,
    checks finiteness or defines a square-matrix gate, and no consumer re-checks a theta."""
    gates = {"_as_real", "_require_finite", "_as_square", "_as_symmetric"}
    outside = [module for module in MODULES if module != "_size"]
    assert _places(lambda node: _name(node) in {"asarray", "isfinite"}, outside) == []
    assert _places(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name in {"_require_square", "_as_square"}, outside) == []
    assert _places(lambda node: isinstance(node, ast.Call) and _name(node.func) in gates
                   and _root(node.args[0]) == "theta") == []


def test_one_hermiticity_residual():
    """max|M - M^H| is formed in `metrics._asymmetry` alone."""
    def difference_with_transpose(node):
        sides = (node.left, node.right) if isinstance(node, ast.BinOp) else ()
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and any(
            isinstance(side, ast.Attribute) and side.attr == "T" for side in sides)

    assert _places(difference_with_transpose) == [("metrics", "_asymmetry")]


def test_one_maximum():
    """Every gate's scale max|M| is read by the one `metrics._largest`."""
    assert _places(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "_largest") == [("metrics", "_largest")]
    assert _places(lambda node: isinstance(node, ast.Call) and _name(node.func) in {"max", "amax"}
                   and node.args and _calls("abs")(node.args[0]),
                   ["lattice", "metrics", "observables"]) == []


def test_one_jacobi_matrix_and_one_certificate():
    """J of the Legendre recurrence is built in `legendre._jacobi` and read by the one Sturm
    certificate of `legendre`; `sturm_count` alone picks its loop from its input's shape, so no
    metric or horizon code loops over shifts or reads their rank."""
    coupling = "(2 * k + 1) * (2 * k + 3)"
    assert _places(lambda node: isinstance(node, ast.BinOp)
                   and ast.unparse(node) == coupling) == [("legendre", "_jacobi")]
    assert {module for module, _ in _places(lambda node: _name(node) == "_jacobi")} == {"legendre"}
    assert {module for module, _ in _places(lambda node: isinstance(node, ast.Constant)
            and "Jacobi eigenvalues below" in str(node.value))} == {"legendre"}

    def picks_a_loop(node):
        if isinstance(node, (ast.For, ast.comprehension)):
            return _name(node.iter) == "shifts"
        return _name(node) == "ndim" and _root(node) == "shifts"

    assert _places(picks_a_loop, ["metrics", "horizons"]) == []


def test_one_label_rule():
    """Only `metrics._label` spells a label that is not positive-definite, and a scan reads its
    labels and its singular skip from one `sturm_count` call."""
    assert set(_places(lambda node: isinstance(node, ast.Constant)
                       and node.value in ("singular", "indefinite"))) == {("metrics", "_label")}
    assert _places(_calls("sturm_count"), ["horizons"]) == [("horizons", "hidden_horizon_scan")]


def test_one_rescale():
    """Every exact power-of-two rescale is `_size._rescaled`, which alone calls frexp and ldexp,
    and the Sturm kernel imports nothing from the package."""
    assert set(_places(lambda node: _name(node) in {"frexp", "ldexp"})) == {("_size", "_rescaled")}
    assert _places(lambda node: isinstance(node, ast.ImportFrom) and node.level,
                   ["tridiagonal"]) == []
