"""Benchmark of the didsens command line: match -> test -> sens, and simulate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_rank --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from the seed (several times, to
time set-up), then runs passes of the workload's verbs through
didsens.cli.main until the measuring window is used up, each pass in a
fresh single-threaded process forked from one that has imported the
package (closed loop, one client: each verb starts when the previous one
returns).  Times are reported at a reference host speed (hostspeed.py).
It then checks the outputs and prints one JSON line last: end-to-end
metrics with --trace 0, per-layer metrics (from spans around the package's
public functions) with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 5
RUN_BUDGET_S = 165.0  # a run must end within 180 s; keep a margin for checks and reporting
CHECKS_RESERVE_S = 15.0
WORK_DIR = ".perfbench-work"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digests(directory: Path) -> dict:
    return {str(p.relative_to(directory)): _sha256(p) for p in sorted(directory.rglob("*")) if p.is_file()}


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():  # an exported checkout, perhaps inside another repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """One benchmark run: set-ups, passes, checks and the result line."""

    def __init__(self, root: Path, workload: str, spec: dict, seed: int, seconds: float, trace: bool) -> None:
        self.root, self.workload, self.spec = root, workload, spec
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.env = _env(root)
        self.work = Path(WORK_DIR) / f"{workload}-s{seed}"
        self.inputs, self.outputs, self.passes_dir = self.work / "inputs", self.work / "outputs", self.work / "passes"
        self.t0 = time.perf_counter()
        self.ops: list[dict] = []
        self.server: subprocess.Popen | None = None
        self.yardsticks: list[float] = []  # yardstick times, from set-ups and passes (hostspeed.py)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t0)

    def _worker(self, *argv: str, timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )

    def op(self, name: str, ok: bool, detail: str = "ok") -> None:
        self.ops.append({"check": name, "ok": bool(ok), "detail": detail})

    # -- set-up ---------------------------------------------------------

    def setup(self) -> list[float]:
        """Generate the inputs SETUPS times; return the wall time of each."""
        times, digests = [], []
        hostspeed.yardstick_s(self.spec["yardstick"])  # warm-up: a cold first run would time page faults
        for _ in range(SETUPS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            t = time.perf_counter()
            proc = self._worker("setup", "--workload", self.workload, "--seed", str(self.seed),
                                "--inputs", str(self.inputs), "--outputs", str(self.outputs),
                                timeout=self.remaining() - CHECKS_RESERVE_S)
            times.append(time.perf_counter() - t)
            self.yardsticks.append(hostspeed.yardstick_s(self.spec["yardstick"]))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            digests.append(_tree_digests(self.inputs))
        self.op("determinism:setup_inputs", all(d == digests[0] for d in digests),
                f"{len(digests)} set-ups, {len(digests[0])} files")
        return times

    # -- passes ---------------------------------------------------------

    def start_server(self) -> None:
        self.passes_dir.mkdir(parents=True, exist_ok=True)
        self.server_log = (self.passes_dir / "server.stderr").open("w+", encoding="utf-8")
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", "--workload", self.workload,
             "--inputs", str(self.inputs)],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.server_log, text=True, start_new_session=True,
        )

    def stop_server(self, kill: bool = False) -> None:
        """End the pass server and any pass it is running, and wait for them."""
        if self.server is None:
            return
        if not kill:
            with contextlib.suppress(OSError):
                self.server.stdin.close()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.server.pid, signal.SIGKILL)
            self.server.wait()
        self.server = None
        self.server_log.close()

    def request(self, result_path: Path, traced: bool) -> str | None:
        """Have the server run one pass; return None, or why it failed."""
        try:
            self.server.stdin.write(f"{result_path} {int(traced)}\n")
            self.server.stdin.flush()
        except OSError:
            return "pass server is gone"
        ready, _, _ = select.select([self.server.stdout], [], [], max(self.remaining() - CHECKS_RESERVE_S, 1.0))
        if not ready:
            self.stop_server(kill=True)
            return "pass timed out"
        if self.server.stdout.readline().strip() == "0":
            return None
        self.server_log.seek(0)
        return self.server_log.read()[-2000:] or "pass server is gone"

    def one_pass(self, index: int, traced: bool) -> dict:
        shutil.rmtree(self.outputs, ignore_errors=True)
        result_path = self.passes_dir / f"pass{index}.json"
        t = time.perf_counter()
        failure = self.request(result_path, traced)
        wall = time.perf_counter() - t
        if failure is not None:
            self.op(f"pass{index}", False, failure)
            return {"traced": traced, "wall": wall, "failed": True}
        res = json.loads(result_path.read_text(encoding="utf-8"))
        for v in res["verbs"]:
            self.op(f"pass{index}:{v['config']}:{v['verb']}", v["rc"] == 0, f"exit {v['rc']}")
        try:
            record = self.record()
        except (OSError, ValueError, AttributeError) as exc:  # unreadable artifacts are a failed operation
            record = None
            self.op(f"pass{index}:record", False, f"{type(exc).__name__}: {exc}")
        self.yardsticks.append(res["yardstick_s"])
        res.update(traced=traced, wall=wall, failed=False, record=record)
        return res

    def run_passes(self) -> list[dict]:
        """Closed loop: start the next pass only if it should end inside the window."""
        start = time.perf_counter()
        passes: list[dict] = []
        while True:
            traced = self.trace and len(passes) % 2 == 1
            passes.append(self.one_pass(len(passes), traced))
            last = passes[-1]["wall"]
            if passes[-1]["failed"]:
                break
            needs_both = self.trace and len(passes) < 2
            if last > self.remaining() - CHECKS_RESERVE_S:
                break
            if not needs_both and time.perf_counter() - start + last > self.seconds:
                break
        return passes

    # -- outputs --------------------------------------------------------

    def record(self) -> dict:
        """Digests of the artifacts and every reported p-value of the latest pass."""
        outputs = _tree_digests(self.outputs)
        p_values = {}
        for report in sorted(self.outputs.rglob("*_report.json")):
            data = json.loads(report.read_text(encoding="utf-8"))
            p_values[str(report.relative_to(self.outputs))] = {
                "p_value": data.get("p_value"), "ci": data.get("ci"), "changepoint": data.get("changepoint"),
                "grid": [row.get("p_upper") for row in data.get("grid", [])],
            }
        for sim in sorted(self.outputs.rglob("simulation.csv")):
            rows = sim.read_text(encoding="utf-8").splitlines()
            p_values[str(sim.relative_to(self.outputs))] = rows[-1]
        return {"inputs": _tree_digests(self.inputs), "outputs": outputs, "p_values": p_values}

    def check_outputs(self, passes: list[dict]) -> None:
        import checks

        done = [p for p in passes if not p["failed"]]
        if not done:
            return
        expected_pkg = (self.root / "src" / "didsens" / "__init__.py").resolve()
        self.op("provenance:package_from_checkout",
                all(Path(p["package_file"]).resolve() == expected_pkg for p in done), done[0]["package_file"])
        self.op("determinism:passes", all(p["record"] == done[0]["record"] for p in done),
                f"{len(done)} passes")
        configs = sorted(self.inputs.glob("*.yaml"))
        try:
            if self.spec["kind"] == "study":
                results = [{**r, "check": f"{config.stem}:{r['check']}"}
                           for config in configs for r in checks.study_checks(config)]
            else:
                results = checks.simulate_checks(configs)
        except Exception as exc:  # noqa: BLE001 - a crash in the checks is a failed check
            results = [{"check": "checks", "ok": False, "detail": f"{type(exc).__name__}: {exc}"}]
        self.ops.extend(results)
        self.compare_with_earlier_run(done[0]["record"])

    def compare_with_earlier_run(self, record: dict) -> None:
        """Runs of the same program and benchmark with the same seed must produce identical bytes."""
        path = Path(WORK_DIR) / "records" / f"{self.workload}-s{self.seed}.json"
        entry = {"src_sha256": _source_digest(self.root / "src" / "didsens"),
                 "bench_sha256": _source_digest(HERE), "record": record}
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            if (earlier.get("src_sha256"), earlier.get("bench_sha256")) == (entry["src_sha256"], entry["bench_sha256"]):
                self.op("determinism:earlier_run", earlier["record"] == record, str(path))
                return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")

    def provenance(self) -> dict:
        import numpy
        import scipy

        import didsens.kernels

        return {
            "git_sha": _git_sha(self.root),
            "src_sha256": _source_digest(self.root / "src" / "didsens"),
            "kernel_backend": getattr(didsens.kernels, "BACKEND", None),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads_pinned": THREADS,
            "yardstick": self.spec["yardstick"],
            "ref_yardstick_s": hostspeed.REF_S[self.spec["yardstick"]],
            "yardstick_s": self.yardsticks,
            "workload": {"name": self.workload, "seed": self.seed, "why": self.spec["why"],
                         "params": self.spec["params"]},
        }


def _median_metrics(passes: list[dict]) -> dict:
    names = {n for p in passes for n in p["metrics"]}
    return {n: statistics.median(p["metrics"][n] for p in passes if n in p["metrics"]) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "didsens" / "cli.py").is_file():
        print(f"no didsens source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})  # before numpy is imported here
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(root, args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    try:
        setup_times = run.setup()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    run.start_server()
    try:
        passes = run.run_passes()
    finally:
        run.stop_server()
    run.check_outputs(passes)
    shutil.rmtree(run.outputs, ignore_errors=True)
    shutil.rmtree(run.inputs, ignore_errors=True)

    failed = sum(not o["ok"] for o in run.ops)
    plain = [p for p in passes if not p["failed"] and not p["traced"]]
    traced = [p for p in passes if not p["failed"] and p["traced"]]

    def at_reference(seconds: list[float]) -> float:
        if not seconds:
            return float("nan")
        return hostspeed.at_reference(statistics.median(seconds), run.yardsticks, run.spec["yardstick"])

    setup = at_reference(setup_times)
    pipeline = at_reference([p["pipeline_s"] for p in plain])

    print(f"workload {args.workload} seed {args.seed}: {run.spec['why']}")
    print(f"yardstick_s: median {statistics.median(run.yardsticks)!r} of {len(run.yardsticks)} "
          f"({run.spec['yardstick']}, reference {hostspeed.REF_S[run.spec['yardstick']]}; "
          f"each {[round(y, 4) for y in run.yardsticks]})")
    print(f"setup_s: median of {len(setup_times)} set-ups {setup!r} at reference speed "
          f"(wall time of each {[round(t, 4) for t in setup_times]})")
    print(f"pipeline_s: median of {len(plain)} untraced passes {pipeline!r} at reference speed "
          f"(wall time of each {[round(p['pipeline_s'], 4) for p in plain]})")
    for i, p in enumerate(passes):
        verbs = ", ".join(f"{v['config']}:{v['verb']} {v['seconds']:.4f}" for v in p.get("verbs", []))
        print(f"pass {i} ({'traced' if p['traced'] else 'untraced'}, wall {p['wall']:.3f} s): {verbs}")
    if run.spec["kind"] == "simulate" and plain:
        reps = sum(d["reps"] for d in run.spec["params"]["designs"].values())
        print(f"sim_reps_per_s: {reps / pipeline!r} at reference speed ({reps} replications per pass)")
    for o in run.ops:
        if not o["ok"]:
            print(f"FAILED {o['check']}: {o['detail']}")
    print(f"operations: attempted {len(run.ops)}, failed {failed}, ops_failed_frac {failed / len(run.ops)!r}")
    print("provenance " + json.dumps(run.provenance(), sort_keys=True))
    if plain:
        print("record " + json.dumps(plain[0]["record"], sort_keys=True))

    if args.trace:
        metrics = _median_metrics(traced) if traced else {}
        if traced and plain:
            metrics["trace.pipeline_s"] = at_reference([p["pipeline_s"] for p in traced])
            metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - pipeline
        absent = sorted({a for p in traced for a in p["absent"]})
        if absent:
            print(f"absent call sites (their metrics are omitted): {absent}")
        units = tracing.METRIC_UNITS
        out = {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics}
    else:
        rss = statistics.median(p["rss_mb"] for p in plain) if plain else float("nan")
        out = {
            "setup_s": {"value": setup, "unit": "s"},
            "pipeline_s": {"value": pipeline, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and bool(plain), "attempted": len(run.ops),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
