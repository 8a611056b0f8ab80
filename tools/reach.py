"""Reach probe: the ``src/repro`` functions no consumer of the system enters.

Runs every consumer that CI runs, with a profile hook loaded through
``sitecustomize`` into every Python process they start, then prints,
per module, the outermost functions that no consumer ever entered,
with their line counts, and the total.  The tier-1 tests are not a
consumer: code that only its own unit test calls shows up here.

- The consumers: the benchmark claim tests (``pytest benchmarks/``),
  the bench harness smoke run, two timed ops of each perfbench
  workload traced and untraced, the five examples, and the traffic,
  tenant and durable-chaos command lines as CI runs them.  Each but
  the harness runs twice: plainly and under ``REPRO_GUARD=on
  REPRO_OBS_VALIDATE=1 REPRO_OBS_TRACE=mem``.
- The hook is a ``sys.setprofile``/``threading.setprofile`` function
  that keeps each code object it sees called.  A process writes the
  ``(co_filename, co_firstlineno)`` pairs under ``src/`` when it
  exits, and forked pool workers, which leave through ``os._exit``,
  write them first through a wrapped ``os._exit``.  A process that is
  SIGKILLed writes nothing; the chaos harness restarts the same code.
- Matching is against ``ast`` function definitions: a code object
  entered at the ``def`` line, or at its first decorator's line
  (where ``co_firstlineno`` points for a decorated function), marks
  the function entered.  A function nested inside one never entered
  is counted with its outer function, not again.

A consumer's exit code is printed and never stops the probe: under the
profiler, the harness's < 3% overhead gates and
``bench_resilience_overhead.py::test_checkpoint_overhead`` can fail on
timing, not behaviour.

Usage, from anywhere (stdlib only, no options)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PY = sys.executable

#: the second pass's environment
ENV_PASS = {
    "REPRO_GUARD": "on",
    "REPRO_OBS_VALIDATE": "1",
    "REPRO_OBS_TRACE": "mem",
}

#: ``sitecustomize`` body; ``{src}`` and ``{out}`` are filled in
HOOK = '''\
import atexit
import json
import os
import sys
import tempfile
import threading

_SRC = {src!r}
_OUT = {out!r}
_codes = {{}}


def _probe(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    paths = {{}}
    records = set()
    for code in list(_codes.values()):
        name = code.co_filename
        if name not in paths:
            paths[name] = os.path.realpath(name)
        if paths[name].startswith(_SRC):
            records.add((paths[name], code.co_firstlineno))
    fd, path = tempfile.mkstemp(dir=_OUT, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(sorted(records), fh)


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_probe)
sys.setprofile(_probe)
'''


class Consumer(NamedTuple):
    name: str
    argv: Tuple[str, ...]
    env: Tuple[Tuple[str, str], ...] = ()
    both_passes: bool = True


def consumers(out: Path) -> List[Consumer]:
    """What CI runs, with every output written under *out*."""
    ab = out / "ab-traces"
    torn = ab / "torn.trace"
    truncate = (
        "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2]); "
        "f = open(sys.argv[2], 'r+b'); f.truncate(f.seek(0, 2) - 5)"
    )
    traffic = (PY, "-m", "repro.traffic")
    return [
        Consumer("pytest benchmarks/",
                 (PY, "-m", "pytest", "benchmarks/", "--benchmark-disable",
                  "-q", "-p", "no:cacheprovider")),
        Consumer("harness --smoke",
                 (PY, "benchmarks/harness.py", "--smoke", "--output",
                  str(out / "bench-smoke.json")), both_passes=False),
        *(Consumer(f"perfbench --trace {t}",
                   (PY, "perfbench/run.py", "--workload", "all", "--seed",
                    "11", "--seconds", "0.36", "--trace", str(t)))
          for t in (0, 1)),
        *(Consumer(f"examples/{p.name}", (PY, f"examples/{p.name}"))
          for p in sorted((ROOT / "examples").glob("*.py"))),
        Consumer("traffic --out",
                 (*traffic, "--out", str(out / "traffic-traces"),
                  "--processes", "poisson,mmpp,diurnal"),
                 env=(("REPRO_PAR", "steal-thread:2"),)),
        *(Consumer(f"traffic --replay {name}",
                   (*traffic, "--replay", f"tests/data/{name}"))
          for name in ("v2_capture.trace", "v2_incident.trace")),
        Consumer("traffic capture (batch)",
                 (*traffic, "capture", "--out", str(ab / "batch.trace"),
                  "--jobs", "200", "--rate", "0.6")),
        Consumer("traffic ab (batch)",
                 (*traffic, "ab", str(ab / "batch.trace"),
                  "--variant", "sjf:policy=sjf", "--variant",
                  "half:n_gpus=2", "--json", str(ab / "batch-ab.json"))),
        Consumer("traffic capture (streamed)",
                 (*traffic, "capture", "--out", str(ab / "stream.trace"),
                  "--horizon", "400", "--rate", "0.6")),
        Consumer("traffic ab (streamed)",
                 (*traffic, "ab", str(ab / "stream.trace"))),
        # CI's SIGKILL drill leaves a torn tail; a truncated copy of the
        # batch capture takes the same reader paths deterministically
        Consumer("torn trace (truncated copy)",
                 (PY, "-c", truncate, str(ab / "batch.trace"), str(torn))),
        Consumer("traffic ab (torn, strict; exits 2)",
                 (*traffic, "ab", str(torn))),
        Consumer("traffic ab --allow-torn",
                 (*traffic, "ab", str(torn), "--allow-torn")),
        Consumer("tenant --out",
                 (PY, "-m", "repro.tenant", "--out",
                  str(out / "tenant-incidents"), "--jobs", "200")),
        Consumer("traffic --replay incident",
                 (*traffic, "--replay",
                  str(out / "tenant-incidents" / "incident-pileup.trace"))),
        *(Consumer(f"durable chaos{label}",
                   (PY, "-m", "repro.durable.chaos", "--cycles", "8",
                    "--kills", "3"), env=env)
          for label, env in (("", ()),
                             (" (REPRO_PAR=process:2)",
                              (("REPRO_PAR", "process:2"),)))),
    ]


def run_consumers(hook_dir: Path, work: Path) -> None:
    """Run each consumer once per pass, printing its exit code."""
    base = dict(os.environ)
    for key in (*ENV_PASS, "REPRO_PAR"):
        base.pop(key, None)
    base["PYTHONPATH"] = os.pathsep.join((str(hook_dir), str(SRC)))
    for label, extra in (("plain", {}), ("env", ENV_PASS)):
        out = work / label
        (out / "ab-traces").mkdir(parents=True)
        for c in consumers(out):
            if label != "plain" and not c.both_passes:
                continue
            env = {**base, **extra, **dict(c.env)}
            start = time.monotonic()
            done = subprocess.run(c.argv, cwd=ROOT, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, check=False)
            print(f"exit {done.returncode:3d}  "
                  f"{time.monotonic() - start:6.1f} s  [{label}] {c.name}",
                  flush=True)
            if done.returncode:
                # the last output line usually names the failed gate
                for line in done.stdout.strip().splitlines()[-1:]:
                    print(f"          | {line}", flush=True)


class Function(NamedTuple):
    name: str
    first: int  # first decorator's line, else the def line
    line: int  # the def line
    last: int
    outer: Optional[int]  # index of the enclosing function, if any

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(source: str) -> List[Function]:
    """Every function definition in *source*, outer before inner."""
    out: List[Function] = []

    def visit(node: ast.AST, prefix: str, outer: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = child.decorator_list
                out.append(Function(
                    prefix + child.name,
                    decorators[0].lineno if decorators else child.lineno,
                    child.lineno, child.end_lineno, outer,
                ))
                visit(child, f"{prefix}{child.name}.", len(out) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(source), "", None)
    return out


def unreached(source: str, entered: Set[int]) -> List[Function]:
    """The outermost functions in *source* never entered.

    *entered* holds the ``co_firstlineno`` of every code object of the
    module that ran.  A missed function inside a missed one is left
    out: its lines are already its outer function's.
    """
    funcs = functions(source)
    missed = [f.first not in entered and f.line not in entered
              for f in funcs]
    covered = [False] * len(funcs)  # inside a missed function
    report = []
    for i, f in enumerate(funcs):
        if f.outer is not None:
            covered[i] = missed[f.outer] or covered[f.outer]
        if missed[i] and not covered[i]:
            report.append(f)
    return report


def load_records(paths: Iterable[Path]) -> Dict[str, Set[int]]:
    """Merge the hook's per-process dumps into ``{file: {first lines}}``."""
    entered: Dict[str, Set[int]] = {}
    for path in paths:
        for filename, line in json.loads(path.read_text()):
            entered.setdefault(filename, set()).add(line)
    return entered


def report(entered: Dict[str, Set[int]]) -> None:
    """Print the never-entered functions per module, then the total."""
    n_funcs = n_lines = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        missed = unreached(path.read_text(), entered.get(str(path), set()))
        if not missed:
            continue
        lines = sum(f.lines for f in missed)
        n_funcs += len(missed)
        n_lines += lines
        print(f"{path.relative_to(ROOT)}: {len(missed)} functions, "
              f"{lines} lines")
        for f in missed:
            print(f"    {f.name} (line {f.line}, {f.lines} lines)")
    print(f"total: {n_funcs} functions never entered, {n_lines} lines")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp_path = Path(tmp)
        hook_dir, records, work = (tmp_path / d
                                   for d in ("hook", "records", "work"))
        for d in (hook_dir, records, work):
            d.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(src=str(SRC) + os.sep, out=str(records)))
        run_consumers(hook_dir, work)
        report(load_records(records.glob("*.json")))


if __name__ == "__main__":
    main()
