"""The package surface: what ``dimerdet`` exports, and that every definition
in the package is used by the package, the demos or the benchmark (code that
only the tests use lives in ``tests/oracles.py``)."""

import ast
import types
from pathlib import Path

import dimerdet
from dimerdet import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dimerdet"

#: the functions the README and the demos call
FUNCTIONS = [
    "bocg_residual", "correlation_finite", "correlation_limit", "correlation_scan",
    "dimer_matrix", "e_phi", "e_phi_reduction", "exp_representation", "fourier_coefficients",
    "geometric_mean", "lambda_value", "log_determinant", "psi_table", "symbol_phi", "symbol_psi",
    "symbol_psi_inverse", "szego_E_operator", "theta_decomposition", "toeplitz_section",
    "widom_banded_E",
]
ERRORS = sorted(name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.DimerdetError))


def test_exports_are_the_documented_functions_the_parameters_and_the_errors():
    assert len(ERRORS) == 15
    assert sorted(dimerdet.__all__) == sorted(FUNCTIONS + ["DimerParams"] + ERRORS)
    assert len(dimerdet.__all__) == 36


def test_every_public_attribute_is_exported():
    public = {name for name, obj in vars(dimerdet).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(dimerdet.__all__)


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names a module reads: bare names, attributes and imported names,
    outside the subtree ``skip``."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_definition_is_used_outside_the_tests():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    outside = [ast.parse(path.read_text())
               for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]
    read_by = {name: _names_used(tree) for name, tree in modules.items()}
    read_outside = set().union(*map(_names_used, outside))
    unused = []
    for name, tree in modules.items():
        others = set().union(*(used for other, used in read_by.items() if other != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in read_outside | others | _names_used(tree, skip=node)):
                unused.append(f"{name}:{node.name}")
    assert unused == []


#: numpy's dense products; its wheel's BLAS is not the one scipy's LUs run on
NUMPY_PRODUCTS = {"matmul", "dot", "tensordot", "inner", "vdot"}


def test_every_dense_product_goes_through_scipys_blas():
    # numpy and scipy wheels each bundle an OpenBLAS with its own thread
    # pool; a numpy gemm leaves its threads spinning beside the next scipy
    # LU, so every product goes through spectral._gemm
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if (name in NUMPY_PRODUCTS or name == "einsum"
                        and any(k.arg == "optimize" for k in node.keywords)):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
