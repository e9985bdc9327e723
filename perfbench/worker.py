"""One step of a benchmark run, in its own process.

    python3 perfbench/worker.py setup --workload W --seed N --inputs DIR --outputs DIR
    python3 perfbench/worker.py serve --workload W --inputs DIR

`setup` imports the package and writes the workload's input files.
`serve` imports the package once, then reads one pass request per line from
stdin, `<result file> <0|1 traced>`, and answers each with an exit code on
one line.  A pass runs in a child forked from the imported state: it runs
the workload's verbs through didsens.cli.main, one after the other, and
writes timings (and, traced, spans and per-layer metrics) as JSON, with
the host-speed yardstick timed right after the verbs.  Each
pass gets a fresh process, so nothing cached in memory by one pass can
speed up the next, and no pass pays interpreter start-up and imports.  Run
from the root of a checkout with src/ on PYTHONPATH; run.py does both.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads


def _setup(args) -> int:
    import didsens.cli  # noqa: F401  (package import is part of set-up cost)

    workloads.write_inputs(args.workload, args.seed, Path(args.inputs), Path(args.outputs))
    return 0


def _run_verb(main, verb: str, config: Path) -> int | str:
    """Exit code of one CLI invocation, or "exception" if it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main([verb, "--config", str(config)])
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        return "exception"


def _pass(args) -> int:
    import didsens
    import didsens.cli
    import tracing

    tracer = absent = None
    if args.trace:
        tracer = tracing.Tracer()
        absent = tracer.install()
    verbs = []
    for config in sorted(Path(args.inputs).glob("*.yaml")):
        for verb in workloads.verb_sequence(args.workload):
            t0 = time.perf_counter()
            if tracer is None:
                rc = _run_verb(didsens.cli.main, verb, config)
            else:
                rc = tracer.call("cli.main", _run_verb, (didsens.cli.main, verb, config))
            verbs.append({"config": config.stem, "verb": verb, "rc": rc, "seconds": time.perf_counter() - t0})
    result = {
        "package_file": didsens.__file__,
        "verbs": verbs,
        "pipeline_s": sum(v["seconds"] for v in verbs),
        # After the verbs, when the process is warm: a cold first run would time page faults.
        "yardstick_s": hostspeed.yardstick_s(workloads.WORKLOADS[args.workload]["yardstick"]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["absent"] = absent
        result["metrics"] = tracing.layer_metrics(tracer.spans, absent)
        Path(args.result).with_suffix(".spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _serve(args) -> int:
    # Forking is safe here: run.py pins the native thread pools to one thread,
    # so this process has no other threads when it forks.
    import didsens.cli  # noqa: F401  (imported once, before the forks)
    import tracing  # noqa: F401

    for line in sys.stdin:
        result, traced = line.split()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # stdout carries only the replies
                code = _pass(argparse.Namespace(workload=args.workload, inputs=args.inputs,
                                                result=result, trace=traced == "1"))
            except Exception:  # reported through the exit code; the child must not return into the loop
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--outputs", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True)
    args = parser.parse_args(argv)
    return _setup(args) if args.step == "setup" else _serve(args)


if __name__ == "__main__":
    sys.exit(main())
