#!/usr/bin/env python3
"""Which ``src/repro`` functions does no driver call?  ``python3 benchmarks/reach_probe.py``

Runs each driver (the example scripts, the experiment report, the bench
gate, record + replay of every scenario, the e2e smoke run and the
paper-figure tests under ``benchmarks/``) in its own interpreter under
``sys.setprofile`` and prints every function compiled from ``src/repro``
that none of them entered, with its line count, then the total.  Standard
library only; about a minute on two cores.  Pool worker processes are not
traced, so code that runs only there reads as unreached.
"""

import inspect
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(SRC.parent))
from repro.experiments import SCENARIOS  # noqa: E402

BOOT = """import atexit, runpy, sys, threading
src, out = sys.argv[1:3]; sys.argv = sys.argv[3:]; seen = set()
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add(f"{frame.f_code.co_filename}:{frame.f_code.co_firstlineno}")
atexit.register(lambda: open(out, "a").write("".join(s + chr(10) for s in seen)))
sys.setprofile(hook); threading.setprofile(hook)
if sys.argv[0] == "-m": sys.argv.pop(0); runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
else: runpy.run_path(sys.argv[0], run_name="__main__")
"""


def drivers(tmp):
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield [str(script)] + (["--workers", "1"] if script.stem == "regenerate_experiments" else [])
    yield ["-m", "repro.bench", "diff", "--check"]
    for name in SCENARIOS:
        yield ["-m", "repro.replay", "record", "--driver", name, "--out", f"{tmp}/{name}.jsonl.gz"]
        yield ["-m", "repro.replay", "replay", f"{tmp}/{name}.jsonl.gz"]
    yield [str(ROOT / "benchmarks/e2e/run.py"), "--workload", "all", "--scale", "smoke"]
    yield ["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks", "--ignore=benchmarks/e2e"]


def functions(code):
    """Every named function under ``code`` (no class body, lambda or comprehension)."""
    for const in filter(inspect.iscode, code.co_consts):
        if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
            yield const
        yield from functions(const)


with tempfile.TemporaryDirectory() as tmp:  # scripts run in it, modules at the root
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for argv in drivers(tmp):
        cwd = ROOT if argv[0] == "-m" else tmp
        boot = [sys.executable, "-c", BOOT, str(SRC), f"{tmp}/seen"]
        subprocess.run(boot + argv, check=True, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    seen = set(Path(f"{tmp}/seen").read_text().split())
code = {path: compile(path.read_text(), str(path), "exec") for path in sorted(SRC.rglob("*.py"))}
every = [(path, fn) for path, module in code.items() for fn in functions(module)]
unreached = [(p, fn) for p, fn in every if f"{p}:{fn.co_firstlineno}" not in seen]
spans = [max(line for _, _, line in fn.co_lines() if line) - fn.co_firstlineno + 1 for _, fn in unreached]
for (path, fn), span in zip(unreached, spans):
    print(f"{path.relative_to(SRC.parent)}:{fn.co_firstlineno} {fn.co_qualname} ({span} lines)")
print(f"unreached: {len(unreached)} of {len(every)} functions, {sum(spans)} lines")
