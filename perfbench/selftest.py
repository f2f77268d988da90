#!/usr/bin/env python3
"""Self-test of the benchmark: tracer coverage, bypass predictions, refusal.

    python3 perfbench/selftest.py

1. Installing the tracer leaves no binding of a wrapped function unwrapped
   (module attributes, `from .x import f` aliases, the package namespace and
   ActionWorkspace methods), and uninstalling restores every original.
2. A short traced run of each workload passes its gates and its bypass
   predictions (nonzero calls where a layer works; no kernels.* calls on
   bounds_family; trajectory_to_csv only on cli_pipeline).
3. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   nonzero without printing a result.

Exit code 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_tracer():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import spans

    tracer = spans.Tracer()
    before = {name: getattr(owner, attr) for name, owner, attr in spans.TARGETS}
    tracer.install()
    try:
        escaped = tracer.unpatched_bindings()
        assert not escaped, f"bindings left unwrapped: {escaped}"
    finally:
        tracer.uninstall()
    after = {name: getattr(owner, attr) for name, owner, attr in spans.TARGETS}
    assert before == after, "uninstall did not restore the originals"
    assert len(tracer.unpatched_bindings()) >= len(spans.TARGETS)
    print(f"tracer: {len(spans.TARGETS)} functions wrapped at every binding, restored")


def check_workloads():
    sys.path.insert(0, str(BENCH))
    import workloads

    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, done.stderr
        calls = {key[:-len(".calls")]: v["value"] for key, v in result["metrics"].items()
                 if key.endswith(".calls") and v["value"]}
        print(f"{name}: gates and bypass predictions hold; layers called: "
              + ", ".join(sorted(calls)))


def check_refusal():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify_scan",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
    finally:
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()
    assert done.returncode != 0, "run.py succeeded without the program's sources"
    assert not done.stdout.strip(), f"run.py printed a result: {done.stdout!r}"
    print(f"refusal: exit code {done.returncode} without sources, nothing printed")


if __name__ == "__main__":
    check_tracer()
    check_workloads()
    check_refusal()
    print("selftest: ok")
