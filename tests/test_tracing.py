"""The benchmark's layer tracer still finds what it wraps.

``bench/tracing.py`` wraps gyrokit functions and methods by name and
rebinds module attributes; a rename, or a function captured before the
rebinding, would silently read 0 in a layer metric.  The run happens in a
subprocess because the tracer patches classes in place.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
sys.path[:0] = ["bench", "src"]
import gyrokit.cli as cli
import tracing

mods = {m.__name__.rpartition(".")[2]: m for m in tracing._modules()}
missing = [f"{m}.{f}" for m, f in tracing.SPAN_FUNCTIONS
           if not callable(getattr(mods[m], f, None))]
missing += [f"{m}.{c}.{f}" for m, c, f in tracing.SPAN_METHODS
            if not callable(getattr(getattr(mods[m], c, None), f, None))]
missing += [f"{m}.{c}.{f}" for m, c, f, _ in tracing.COUNTED
            if not callable(getattr(getattr(mods[m], c) if c else mods[m],
                                    f, None))]
tracer = tracing.Tracer()
tracing.install(tracer)
g8 = ["--model", "table:src/gyrokit/tables/g8.json"]
runs = [["check", *g8], ["identities", *g8],
        ["metric", *g8, "--chain", "tests/golden/chains/g8-adm.json",
         "--pairs", "0:1", "--depth", "4"],
        ["hull", *g8, "--subset", "0,1,2,3,4,5,6,7", "--depth", "4"]]
codes, calls = [], []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    calls.append({k: v for k, v in tracer.metrics().items()
                  if k.endswith(".calls")})
print(json.dumps({"missing": missing, "codes": codes, "calls": calls}))
"""

# per run, the layers that must record calls in that run itself
TRACED = [["core.check_axioms"], ["core.check_identities"],
          ["prenorm.validate_chain", "prenorm.build_dyadic_family"],
          ["prenorm.validate_chain"]]


def test_tracer_names_resolve_and_layers_record_calls():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    assert out["codes"] == [0, 0, 0, 0]
    before = {}
    for names, calls in zip(TRACED, out["calls"]):
        for name in names:
            key = f"{name}.calls"
            assert calls[key] - before.get(key, 0) >= 1, name
        before = calls
