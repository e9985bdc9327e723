"""Run the benchmark's hand-in check on one committed revision.

    python tools/hand_in_check.py [REVISION]

Exports REVISION (default HEAD) with `git archive` into a temporary
directory, then runs `perfbench/run.py` there for each workload at
`--trace 0` and `--trace 1`, seed 9, `--seconds 10`.  A run passes when it
exits 0 and its last stdout line is strict JSON (no NaN or Infinity) with
`"correct": true` and `"failed": 0`.  Prints one row per run and exits 1
when any run fails.
"""

import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("study_rank", "study_balance", "mc_null")
SEED, SECONDS = 9, 10


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the result line")


def _check(proc: subprocess.CompletedProcess) -> str:
    """Why a perfbench run failed, or "" when it passed."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return f"last line is not strict JSON: {exc}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return f"correct={result.get('correct')!r} failed={result.get('failed')!r}"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    revision = argv[0] if argv else "HEAD"
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", revision], capture_output=True, check=False
    )
    if archive.returncode != 0:
        print(f"git archive {revision} failed: {archive.stderr.decode().strip()}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                     "--seconds", str(SECONDS), "--trace", str(trace)],
                    cwd=tmp, capture_output=True, text=True, check=False,
                )
                problem = _check(proc)
                failures += bool(problem)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                status = f"FAIL {problem}" if problem else "ok"
                print(f"{revision} {workload} --trace {trace}: {status}  {last[:160]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
