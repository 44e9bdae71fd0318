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
