import json
import os
import re
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


SRC = str(Path(sonolens.__file__).resolve().parents[1])


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_readme_library_example_prints_its_psnr():
    # the library example of README.md runs as printed there and prints
    # the cross-domain PSNR that the text after it quotes
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    quoted = re.search(r"It prints ([\d.]+) dB", section).group(1)
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    value, unit = run.stdout.split()
    assert (f"{float(value):.2f}", unit) == (quoted, "dB") == ("56.10", "dB")


def test_cli_import_loads_no_scipy():
    # every CLI call pays for what `import sonolens.cli` loads; the runtime
    # needs NumPy and the standard library only
    run = run_python("import sys, sonolens.cli; "
                     "print(' '.join(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_design_and_sweep_run_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise, as
    # in an environment where only NumPy is installed
    cfg = {
        "grid": {"nx": 16, "ny": 16, "nz": 24, "spacing_um": 125,
                 "frequency_mhz": 2},
        "source": {"full_plane": True},
        "medium": {"kind": "homogeneous", "material": "water"},
        "target": {"focus_centers_mm": [[1.0, 1.0, 2.0]], "radius_um": 200},
        "optim": {"iterations": 2},
        "solver": {"reflection_order": 0},
        "sweep": {"realizations": 2},
        "method": "thickness",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sonolens import cli\n"
        "cfg, out = sys.argv[1:]\n"
        "design = cli.main(['design', '--config', cfg, '--out', out + '/d'])\n"
        "sweep = cli.main(['sweep', '--config', cfg, '--out', out + '/s',\n"
        "                  '--axis', 'perturbation',\n"
        "                  '--lens', out + '/d/lens_thickness.csv'])\n"
        "print(design, sweep)\n"
    )
    run = run_python(code, str(path), str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["0", "0"], run.stdout + run.stderr
    assert (tmp_path / "s" / "sweep.csv").exists()


def test_benchmark_tracer_installs():
    # the benchmark's tracer (perfbench/tracer.py) patches sonolens
    # functions by name where their callers look them up: a binding that a
    # change drops fails here, not only in the benchmark's traced runs
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    run = run_python("import sys; sys.path.insert(0, sys.argv[1]); "
                     "import tracer; tracer.install(tracer.Tracer('t'))",
                     perfbench)
    assert run.returncode == 0, run.stderr
