"""Every artifact of the benchmark workloads keeps its bytes.

The inputs are perfbench's `study_rank`, `study_balance` and `mc_null`
workloads at one seed.  `tests/golden/manifest.json` records the sha256,
size and per-line digests of each file that `match`, `test`, `sens` and
`simulate` write for them, with the Python, numpy and scipy versions that
produced it.  Floating-point bytes may differ on other versions, so a
version mismatch fails and names the versions.

A change that moves an artifact on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from didsens.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEED = 91
# Hex digits of each line's sha256 kept in the manifest, enough to locate the first change.
LINE_DIGEST = 8

_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def regenerate(root: Path) -> dict[str, bytes]:
    """Run every workload's verbs under `root`; return each artifact's bytes by relative path."""
    for name in workloads.WORKLOADS:
        out = root / name / "out"
        for config in workloads.write_inputs(name, SEED, root / name / "in", out):
            for verb in workloads.verb_sequence(name):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main([verb, "--config", str(config)])
                assert rc == 0, f"{name} {config.name} {verb} exited {rc}"
    return {
        path.relative_to(root).as_posix().replace("/out/", "/", 1): path.read_bytes()
        for path in sorted(root.glob("*/out/**/*"))
        if path.is_file()
    }


def _line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:LINE_DIGEST] for line in data.splitlines()]


def manifest_of(files: dict[str, bytes]) -> dict:
    return {
        "seed": SEED,
        "versions": versions(),
        "files": {
            name: {
                "sha256": hashlib.sha256(data).hexdigest(),
                "size": len(data),
                "lines": "".join(_line_digests(data)),
            }
            for name, data in files.items()
        },
    }


def _first_difference(name: str, data: bytes, recorded: dict) -> str:
    old = recorded["lines"]
    old = [old[i : i + LINE_DIGEST] for i in range(0, len(old), LINE_DIGEST)]
    new = _line_digests(data)
    k = next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    if len(new) == len(old) == k:
        return f"{name}: same lines, different bytes (size {len(data)}, recorded {recorded['size']})"
    lines = data.splitlines()
    shown = lines[k].decode(errors="replace") if k < len(lines) else "<end of file>"
    return f"{name}: first differing line {k + 1}: {shown}"


def test_artifacts_match_the_golden_manifest(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert recorded["versions"] == versions(), (
        f"manifest written with {recorded['versions']}, running {versions()}: "
        "check the artifacts by hand, then rewrite the manifest"
    )
    files = regenerate(tmp_path)
    problems = [f"{name}: missing" for name in recorded["files"] if name not in files]
    problems += [f"{name}: not in the manifest" for name in files if name not in recorded["files"]]
    for name, data in files.items():
        entry = recorded["files"].get(name)
        if entry is not None and hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(_first_difference(name, data, entry))
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = manifest_of(regenerate(Path(tmp)))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files)", file=sys.stderr)
