"""Import-time footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import signedvoter


def test_import_does_not_load_scipy():
    # scipy.sparse alone raises process RSS from about 27 to 60 MB, which the
    # benchmark's peak_rss_mb bound on compare_balanced does not allow
    src = Path(signedvoter.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, signedvoter; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_import_and_small_products_start_no_thread():
    # the pool is made by the first product of _PART_EDGES edges or more
    code = ("import threading, signedvoter as sv, numpy as np\n"
            "assert threading.active_count() == 1\n"
            "G = sv.from_edge_list([(0, 1, 1), (1, 0, -1)])\n"
            "sv.apply_p(G, np.ones(2)); sv.apply_p_transpose(G, np.ones(2))\n"
            "assert threading.active_count() == 1\n")
    src = Path(signedvoter.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
