"""Demo digests: the stdout of each fast `demos/` script, pinned byte for byte.

Each script runs in its own interpreter with the package's source tree
first on its path.  A refactor that keeps behaviour keeps every digest; a
deliberate change of output updates the digest here and says why in
CHANGES.md.  `sampler_convergence.py` is left out while it takes longer
than the other five together.  A digest that moves on another platform (a
different libm) is a finding to report, not a reason to loosen this test.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soc_ising

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(soc_ising.__file__).resolve().parents[1]

# script stem -> stdout sha256
DIGESTS = {
    "exact_couplings":
        "4572a9e57fd79173e3bcfa8f377c700866bce4c3a40fb963700cf2a236fa8e63",
    "partition_identity":
        "ab31655ae4cc5aade4ae4992e1ab2e400a81715c670a3cabbd6c824ab33539ae",
    "soc_trajectories":
        "fb87478606b2a14dd9f45a9e28f96c71552eddeb37012ece665813e9bc8d1ddf",
    "surgery_walkthrough":
        "318fc1d53c62eef05e3958d89f1b38649235a73e0748f6a6c0590775853cd0f1",
    "tail_decay_and_fixed_point":
        "29acd3322f2d556b3bfaea7ae2df4deb57fcedc257930b849b7e2d272229a3e2",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_demo_stdout_digest(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, f"{name}: stderr {proc.stderr.decode()!r}"
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name], (
        f"{name}: stdout digest moved")
