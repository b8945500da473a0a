"""SciPy is a test dependency only: the package imports, designs and runs
its command line without it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """stdout of ``code`` run by a fresh interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_scipy():
    out = run_fresh("import sys, quantldpc\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_a_design_and_the_complexity_table_run_with_scipy_blocked():
    out = run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None    # any import of scipy now raises\n"
        "from quantldpc import EnsembleConfig, design_decoder\n"
        "from quantldpc.cli import main\n"
        "cfg = EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=5, cn_variant='comp',\n"
        "                     vn_variant='comp', design_ebn0_db=3.0, rate=0.5)\n"
        "artifact, trajectory = design_decoder(cfg)\n"
        "print(len(artifact.per_iteration), trajectory[-1][1] > 0.9)\n"
        "sys.exit(main(['complexity', '--dc', '6', '--dv', '3', '--w', '4', '--wphi', '8']))\n")
    lines = out.strip().split("\n")
    assert lines[0] == "5 True"
    assert lines[1] == "node,variant,operations,translations,memory_bits,out_of_model"
    assert any(line.startswith("cn,comp,") for line in lines[2:])
