"""The bench tracer wraps engine functions by name. A renamed or removed
wrapped name makes ``install`` raise; this runs it in a fresh
interpreter against the package under test, so the rename fails here
and not only in the slower benchmark suite."""
import os
import subprocess
import sys
from pathlib import Path

import spectrum_auction

SRC = str(Path(spectrum_auction.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")

RUN = """
import sys
sys.path.insert(0, {bench!r})
from tracer import Tracer, install
install(Tracer({out!r}))
"""


def test_tracer_installs_on_the_engine(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = RUN.format(bench=BENCH, out=str(tmp_path / "spans.json"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
