"""The bench's set-up probe builds every command's config objects through
the CLI's own calls (``build_parser``, ``load_config``, the market
parsers). This runs it the way the benchmark does, through
``run.Runner.setup_seconds`` in a fresh interpreter, on the seed-0 plan
of each workload, so a CLI change that breaks one of those calls fails
here and not first inside a benchmark run. Nothing under ``bench/`` is
written: the plan and the workload's config files go to a temporary
directory, and no bytecode is cached."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectrum_auction

SRC = str(Path(spectrum_auction.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")

RUN = """
import sys
from pathlib import Path
sys.path.insert(0, {bench!r})
import run, workloads
workload = workloads.generate({name!r}, workloads.DEFAULT_SEED)
workdir = Path({workdir!r})
workload.write_inputs(workdir)
try:
    run.Runner(workload, workdir).setup_seconds()
except RuntimeError:
    sys.stderr.write((workdir / "setup_probe.stderr").read_text())
    raise
"""


@pytest.mark.parametrize("name", ["sim-fig8", "multi-fig12", "certify", "reserve-study"])
def test_setup_probe_runs_on_the_seed_0_plan(tmp_path, name):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = RUN.format(bench=BENCH, name=name, workdir=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
