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


def test_every_private_name_is_used():
    # a private name that no code of the package reads, calls or imports is
    # dead: its own definition does not count as a use
    src = Path(kernelforge.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
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


# scipy costs a process about 0.3 s and 24 MB to import, and only the Gram
# oracle's quadrature and verify's E_theta rule need it
_SCIPY_STAYS_UNLOADED = textwrap.dedent("""
    import contextlib, io, sys
    import kernelforge, kernelforge.cli
    from kernelforge import Point2, oracle

    def scipy_loaded():
        return {m for m in ("scipy.special", "scipy.linalg")
                if m in sys.modules}

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
            ["sigma", "--space", "bidisk", "--alpha", "0", "--beta", "0"],
            ["norm-expand", "--space", "ball", "--alpha", "0", "--beta", "0",
             "--theta", "1", "--poly", "z1 - z2"],
            # the exact Gram blocks and the stacked order pass are numpy only
            ["norm-expand", "--space", "bidisk", "--alpha", "1", "--beta",
             "0.5", "--theta", "2", "--poly", "z1^3 - z2 + 2", "--oracle"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert kernelforge.cli.main(argv) == 0, argv
    z, w = Point2(0.3, 0.1), Point2(0.2, -0.4)
    kernelforge.ball_full_kernel(kernelforge.BallParams(1, 0.5, 0.5), z, w)
    kernelforge.fock_full_kernel(kernelforge.FockParams(1, 1, 0.5), z, w)
    assert not scipy_loaded(), scipy_loaded()
    oracle.gram_numeric("bidisk", {"alpha": 0, "beta": 0, "theta": 1}, 0)
    assert scipy_loaded() == {"scipy.special", "scipy.linalg"}, scipy_loaded()
""")


def test_series_paths_leave_scipy_unloaded():
    src = Path(kernelforge.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_STAYS_UNLOADED],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
