"""Benchmark of the hopfcalc command line: one workload, metrics as JSON.

    python3 perfbench/run.py --workload {nck,pairing,series} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout.  The command line is started the
way an installed ``hopfcalc`` script would start it: the ``[project.scripts]``
target in ``pyproject.toml``, called under this interpreter with ``src`` on
the path, one process at a time.

``--trace 0`` repeats the workload's commands for about ``--seconds`` (always
at least one pass) and reports the end-to-end metrics, built from each
command's median over the passes; wall-clock times go into the record.
``--trace 1`` makes one untraced pass and then the in-process traced run of
``layers`` and reports the per-layer metrics.

Every output is checked (see ``workloads``).  The last line of stdout is the
result; the line before it is the run's record: machine, load, seed, source
version and each command's own times.  Both, and the spans of a traced run,
are also written under ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import layers
import workloads

WORK = Path(__file__).resolve().parent / "_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_PROBES = 5


class SourceMissing(Exception):
    """The working directory is not a hopfcalc source checkout."""


def launcher(root: Path) -> str:
    """Python source that calls the ``hopfcalc`` console-script target."""
    try:
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["hopfcalc"]
    except (OSError, KeyError, tomllib.TOMLDecodeError) as exc:
        raise SourceMissing(f"no hopfcalc script target in pyproject.toml: {exc}") from exc
    module, _, attr = target.partition(":")
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HOPF_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], root: Path, env: dict) -> dict:
    """Run one child to completion: exit code, output, wall and CPU time, peak RSS."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "stdout": out.read(),
            "stderr": err.read(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
        }


class Runner:
    """Runs workload commands as separate CLI processes and checks them."""

    def __init__(self, root: Path, golden: dict) -> None:
        self.root = root
        self.env = child_env(root)
        self.prefix = [sys.executable, "-c", launcher(root)]
        self.golden = golden

    def run(self, op: workloads.Op) -> dict:
        env = dict(self.env, **dict(op.env))
        result = run_process(self.prefix + list(op.argv), self.root, env)
        result["ok"] = workloads.output_ok(op, result["code"], result["stdout"], self.golden)
        return result

    def import_s(self) -> float:
        """Wall time of a fresh interpreter that imports hopfcalc."""
        result = run_process([sys.executable, "-c", "import hopfcalc"], self.root, self.env)
        if result["code"] != 0:
            err = result["stderr"].decode(errors="replace")
            raise SourceMissing(f"import hopfcalc failed:\n{err}")
        return result["wall_s"]


def timed_passes(
    runner: Runner, ops: list, seconds: float, setup: list[float]
) -> list[list[dict]]:
    """Whole passes over ``ops`` while the next one still fits in ``seconds``.

    Set-up is sampled after every pass too, so that its median spans the run
    and not only the machine's speed at its start.
    """
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.mean(sum(r["wall_s"] for r in p) for p in passes)
        <= seconds
    ):
        passes.append([runner.run(op) for op in ops])
        setup.extend(runner.import_s() for _ in range(SETUP_PROBES))
    return passes


def end_to_end(passes: list[list[dict]], setup: list[float]) -> dict:
    """Gated metrics.  Command time is CPU time (user + sys) of the children:
    for these single-threaded, CPU-bound commands that is their wall time
    less the time the machine's hypervisor ran something else, which on a
    shared host moves wall time by a third from one minute to the next."""
    return {
        "cpu_s": (sum(per_op_medians(passes, "cpu_s")), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for p in passes for r in p) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_op_medians(passes: list[list[dict]], key: str) -> list[float]:
    """Each command's median over the passes, so one slow pass counts little."""
    return [statistics.median(p[i][key] for p in passes) for i in range(len(passes[0]))]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_version(root: Path) -> dict:
    """The git commit when there is one, and a digest of the package sources."""
    digest = hashlib.sha256()
    files = [root / "pyproject.toml"] + sorted(
        p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts
    )
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def op_record(ops: list, passes: list[list[dict]]) -> tuple[list[dict], list[dict]]:
    """Each command's exit codes and times over the passes, and its failures."""
    ops_out = [
        {
            "name": op.name,
            "argv": list(op.argv),
            "exit": [p[i]["code"] for p in passes],
            "wall_s": [p[i]["wall_s"] for p in passes],
            "cpu_s": [p[i]["cpu_s"] for p in passes],
            "peak_rss_kb": max(p[i]["rss_kb"] for p in passes),
        }
        for i, op in enumerate(ops)
    ]
    failures = [
        {
            "name": op.name,
            "pass": k,
            "exit": p[i]["code"],
            "stderr": p[i]["stderr"][-500:].decode(errors="replace"),
        }
        for k, p in enumerate(passes)
        for i, op in enumerate(ops)
        if not p[i]["ok"]
    ]
    return ops_out, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    load_start = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    try:
        runner = Runner(root, json.loads(GOLDEN.read_text(encoding="utf-8")))
        runner.import_s()  # compiles the package once, outside any timing
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cpu_model": cpu_model(),
        },
        **source_version(root),
    }
    with tempfile.TemporaryDirectory(dir=WORK) as inputs:
        ops = workloads.build(args.workload, args.seed, Path(inputs))
        if args.trace:
            passes = [[runner.run(op) for op in ops]]
            expected = {op.name: (r["code"], r["stdout"]) for op, r in zip(ops, passes[0])}
            traced = layers.measure(root, runner.env, args.seed, ops, expected)
        else:
            setup = [runner.import_s() for _ in range(SETUP_PROBES)]
            passes = timed_passes(runner, ops, args.seconds, setup)
    attempted = sum(len(p) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p)
    spans = None
    if args.trace:
        metrics = traced["metrics"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        untraced_wall = sum(r["wall_s"] for r in passes[0])
        record["self_check_counts"] = traced["counts"]
        record["tracing"] = {
            "untraced_wall_s": untraced_wall,
            "traced_inproc_s": metrics["cli.inproc_s"][0],
            "startup_and_overhead_s": untraced_wall - metrics["cli.inproc_s"][0],
        }
        spans = traced["spans"]
    else:
        metrics = end_to_end(passes, setup)
        record["setup_samples_s"] = setup
    record["passes"] = len(passes)
    # the slowest command's time swings too much on a shared host to gate
    wall, cpu = per_op_medians(passes, "wall_s"), per_op_medians(passes, "cpu_s")
    record["wall_s"], record["op_max_s"], record["op_max_cpu_s"] = sum(wall), max(wall), max(cpu)
    record["ops"], record["failures"] = op_record(ops, passes)
    record["fail_ratio"] = failed / attempted
    record["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result, "spans": spans}, indent=1), encoding="utf-8"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
