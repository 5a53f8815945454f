import os
import subprocess
import sys
from pathlib import Path

import sonolens


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from sonolens import *", namespace)
    assert len(set(sonolens.__all__)) == len(sonolens.__all__)
    for name in sonolens.__all__:
        assert namespace[name] is getattr(sonolens, name)


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # every CLI call pays for what `import sonolens.cli` loads; these three
    # subpackages cost over a second and nothing in the package needs them
    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate")
    src = str(Path(sonolens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, sonolens.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
