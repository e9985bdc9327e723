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
REPO = Path(__file__).resolve().parents[1]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the result line")


def commit_sha(revision: str) -> str | None:
    """The full SHA of the commit REVISION names, or None when it names none."""
    out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else None


def export(sha: str, dest: str) -> str:
    """Extract `git archive SHA` into dest; returns git's error, or "" on success."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", sha], capture_output=True, check=False
    )
    if archive.returncode != 0:
        return archive.stderr.decode().strip()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return ""


def run_perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> subprocess.CompletedProcess:
    """One `perfbench/run.py` run from the root of an exported tree."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict | None, str]:
    """(the run's result line, "") when it passed, else (None, why it failed)."""
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return None, f"last line is not strict JSON: {exc}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, f"correct={result.get('correct')!r} failed={result.get('failed')!r}"
    return result, ""


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    revision = argv[0] if argv else "HEAD"
    failures = 0
    sha = commit_sha(revision)
    if sha is None:
        print(f"{revision!r} names no commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        error = export(sha, tmp)
        if error:
            print(f"git archive {revision} failed: {error}", file=sys.stderr)
            return 2
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_perfbench(tmp, workload, SEED, SECONDS, trace)
                problem = result_of(proc)[1]
                failures += bool(problem)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                status = f"FAIL {problem}" if problem else "ok"
                print(f"{revision} {workload} --trace {trace}: {status}  {last[:160]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
