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


# scipy costs a process about 0.3 s and 24 MB to import, and only the Gram
# oracle's quadrature and LAPACK calls and verify's E_theta rule need it
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
            # enough pairs for the array path of bidisk.full_kernels
            ["kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
             "--pair", "0.8,-0.8,-0.3,0.3", "--pair", "0.2,0.1,0.4,-0.1",
             "--pair", "0.1,0.1,0.1,0.1", "--pair", "-0.7,0.6,0.65,-0.7"],
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
