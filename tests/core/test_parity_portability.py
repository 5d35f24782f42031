"""The serial-parity fixture holds on every x86 SIMD level, not only this CPU's.

numpy dispatches some kernels (``exp``, ``log``, ``sin``, sorting) to
AVX2 or AVX-512 code at run time, and a kernel may round differently
from one level to the next.  A trajectory that goes through such a
kernel is then CPU-dependent, and ``seed_trajectories.json`` would pin
what only one kind of CPU produces.  This test reruns the parity test of
``test_ask_tell.py`` in a subprocess with numpy's AVX-512 targets
switched off (the AVX2 level) and with every dispatched target switched
off (the baseline), so a SIMD-dependent kernel cannot slip back into an
algorithm.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: numpy's dispatch targets above the x86-64 baseline, lowest first
LEVELS = {
    "avx2": "X86_V4 AVX512_ICL AVX512_SPR",
    "baseline": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the disabled targets are numpy's x86 dispatch levels",
)
@pytest.mark.parametrize("level", sorted(LEVELS))
def test_trajectories_are_byte_identical_at_simd_level(level):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=LEVELS[level])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "from numpy._core._multiarray_umath import __cpu_features__ as f;"
         f"print([name for name in {LEVELS[level].split()!r} if f.get(name)])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert probe.stdout.strip() == "[]", probe.stdout + probe.stderr  # the targets are off
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/core/test_ask_tell.py::TestSerialParityWithSeedImplementations"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]
    assert " passed" in completed.stdout
