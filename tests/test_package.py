import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import kernelforge


def test_public_names_resolve_once():
    names = kernelforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kernelforge, name), name


def _definitions(tree: ast.Module):
    """The names that a module defines at module level, and the methods of
    its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            yield from (n.name for n in node.body
                        if isinstance(n, ast.FunctionDef))


def _package_trees() -> dict:
    """The syntax tree of each module of the package, by file name."""
    src = Path(kernelforge.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))}


def test_every_private_name_is_used():
    # a private name that no code of the package reads, calls or imports is
    # dead: its own definition does not count as a use
    trees = list(_package_trees().values())
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    # dunder names are not private
    defined = {name for tree in trees for name in _definitions(tree)
               if name.startswith("_") and not name.endswith("__")}
    assert sorted(defined - used) == []


_ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_setting_comes_from_the_environment():
    # every setting is an argument or a constant, so that a result depends
    # on the call alone
    reads = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{name}:{node.lineno} os.{n}" for n in names
                      if n in _ENVIRONMENT_READS]
    assert reads == []


def test_no_function_takes_a_truncation_setting():
    # the truncation tolerance is the constant config.TOLERANCE, which each
    # series module reads as a global; no function or lambda of the package
    # takes a settings object as a parameter
    found = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                found += [f"{name}:{node.lineno}" for p in params
                          if p.arg == "cfg"]
    assert found == []


# numpy is the only runtime dependency: with scipy blocked, so that any
# import of it fails, every command, kernel and oracle path and the verify
# suites still run
_SCIPY_BLOCKED = textwrap.dedent("""
    import contextlib, io, sys
    sys.modules["scipy"] = None
    import kernelforge, kernelforge.cli
    from kernelforge import Point2, oracle, verify

    for argv in (
            ["kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
             "--pair", "0.3,0.2,0.1,0.4"],
            # several pairs in one array recurrence
            ["kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
             "--pair", "0.8,-0.8,-0.3,0.3", "--pair", "0.2,0.1,0.4,-0.1",
             "--pair", "0.1,0.1,0.1,0.1", "--pair", "-0.7,0.6,0.65,-0.7"],
            # exact Gram blocks inverted by the stacked Cholesky pass
            ["kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
             "--theta", "1", "--pair", "0.3,0.2,0.1,0.4", "--oracle"],
            # the Gaussian remainder's orthogonal terms at fractional theta
            ["kernel", "--space", "fock", "--alpha", "1.3", "--beta", "0.7",
             "--theta", "0.5", "--pair", "0.3,0.2,0.1,-0.4", "--oracle"],
            ["sigma", "--space", "bidisk", "--alpha", "0", "--beta", "0"],
            ["norm-expand", "--space", "ball", "--alpha", "0", "--beta", "0",
             "--theta", "1", "--poly", "z1 - z2"],
            ["norm-expand", "--space", "bidisk", "--alpha", "1", "--beta",
             "0.5", "--theta", "2", "--poly", "z1^3 - z2 + 2", "--oracle"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert kernelforge.cli.main(argv) == 0, argv
    z, w = Point2(0.3, 0.1), Point2(0.2, -0.4)
    kernelforge.ball_full_kernel(kernelforge.BallParams(1, 0.5, 0.5), z, w)
    kernelforge.fock_full_kernel(kernelforge.FockParams(1, 1, 0.5), z, w)
    oracle.gram_numeric(kernelforge.BidiskParams(0, 0, 1), 0)
    assert verify.run_suite("all", 0)["passed"]
""")


def test_every_path_runs_with_scipy_blocked():
    src = Path(kernelforge.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
