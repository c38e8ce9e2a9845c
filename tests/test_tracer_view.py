"""The benchmark's tracer still finds every name it wraps in the library.

``perfbench/tracing.py`` resolves effectlogic's functions, methods and
validators by name and rebinds them for good, so it runs in a child
process.  Traced reports must equal untraced ones, and spans must be kept.
The same child process checks what importing the library loads: numpy
loads ``numpy.random`` lazily, and an annotation evaluated at import time
that names ``np.random.Generator`` loads it and adds about 6 MB to the
benchmark's peak RSS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import effectlogic

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import importlib.util, json, pathlib, sys
import effectlogic
from effectlogic import cli, scenario
loads_random = "numpy.random" in sys.modules
def reports():
    texts = [pathlib.Path(path).read_text(encoding="utf-8") for path in sys.argv[2:]]
    return [cli.demo("polarisation")] + [scenario.run(scenario.parse_scenario(t)) for t in texts]
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
untraced, tracer = reports(), tracing.Tracer()
tracing.install(tracer, effectlogic)
traced = reports()
layers = sorted({span[tracing.LAYER] for span in tracer.spans})
print(json.dumps([loads_random, untraced, traced, len(tracer.spans), layers]))
"""


def test_traced_reports_equal_untraced_ones():
    src = str(Path(effectlogic.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", RUN, str(ROOT / "perfbench" / "tracing.py"),
         str(ROOT / "scenarios" / "three_doors.scn"), str(ROOT / "scenarios" / "weather.scn")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loads_random, untraced, traced, spans, layers = json.loads(proc.stdout)
    assert not loads_random
    assert traced == untraced and len(untraced) == 3
    assert spans > 0
    assert {"quantum.ops", "stochastic.ops", "classical.ops", "scenario.eval"} <= set(layers)
