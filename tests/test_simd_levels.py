"""The golden counts at every numpy SIMD dispatch level the host has.

numpy picks kernels such as exp and log by CPU feature level, and their
bits can differ between levels.  Each case re-runs tests/test_golden.py in
a child process whose NPY_DISABLE_CPU_FEATURES turns off every dispatch
level above its own, so every level must give the recorded counts.  A
level the host lacks is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import (__cpu_baseline__,
                                           __cpu_dispatch__,
                                           __cpu_features__)

import bicmlab

GOLDEN = Path(__file__).with_name("test_golden.py")
DISPATCH = list(__cpu_dispatch__)   # lowest level first
# checks that the levels named in argv[1] are off, then runs argv[2]
CHILD = """\
import sys, pytest
from numpy._core._multiarray_umath import __cpu_features__ as on
off = sys.argv[1].split()
assert not any(on[name] for name in off), [n for n in off if on[n]]
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


@pytest.mark.parametrize("level", range(len(DISPATCH) + 1),
                         ids=[(__cpu_baseline__ or ["baseline"])[-1],
                              *DISPATCH])
def test_golden_counts_at_every_dispatch_level(level):
    """level 0 is the baseline; level i > 0 runs up to DISPATCH[i - 1]."""
    if level and not __cpu_features__[DISPATCH[level - 1]]:
        pytest.skip(f"the host lacks {DISPATCH[level - 1]}")
    off = [name for name in DISPATCH[level:] if __cpu_features__[name]]
    src = str(Path(bicmlab.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    # run() kills the child if it outlives the timeout
    child = subprocess.run(
        [sys.executable, "-c", CHILD, " ".join(off), str(GOLDEN)],
        cwd=GOLDEN.parents[1], env=env, capture_output=True, text=True,
        timeout=300)
    summary = child.stdout.strip().splitlines()[-1:]
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert summary and " passed in " in summary[0], summary
    assert not any(word in summary[0]
                   for word in ("skipped", "xfail", "xpass", "deselected"))
