"""Record the exit code and stdout digest of every fixed workload command.

    python3 perfbench/record_golden.py

Run it from the root of a source checkout whose outputs are trusted; it
rewrites ``perfbench/golden.json``, against which ``run.py`` checks them.
The two expected-failure commands must fail the documented way, or nothing
is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def contract_broken(name: str, code: int, stdout: bytes) -> str | None:
    if name == "gate.nck.failing":
        if code != 1 or json.loads(stdout)["first_failure"] != 3:
            return "did not fail at degree 3 with exit 1"
    elif name == "convert.p-s.half":
        if code != 3:
            return f"exited {code}, expected 3"
    elif code != 0:
        return f"exited {code}"
    return None


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(Path.cwd(), golden={})
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.WORK) as inputs:
        for ops in workloads.fixed_ops(Path(inputs)).values():
            for op in ops:
                result = runner.run(op)
                problem = contract_broken(op.name, result["code"], result["stdout"])
                if problem:
                    print(f"error: {op.name} {problem}", file=sys.stderr)
                    return 1
                golden[op.name] = {
                    "exit": result["code"],
                    "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest(),
                }
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
