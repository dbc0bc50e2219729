"""Self-test: the benchmark must report a failure, not numbers, when a route lies.

    python3 bench/selftest.py

For each workload, a `sitecustomize` module placed on PYTHONPATH corrupts
one route in every child interpreter the benchmark starts (the CLI for
search-k5 included). The run must exit nonzero and print a result with
correct=false, at least one failed request and no metrics. A clean
lemma-oracles run is the control: it must pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import workloads as wl

# Each fault corrupts one route of the program; the benchmark's own
# checks (or the program's cross-checks) must turn it into a failure.

# divides_sigma lies at n = 28 (alpha=3, p=7, beta=2), so the direct route
# disagrees with the conditions and classify raises CrossCheckError.
_DIVIDES_SIGMA_LIES = """
    _orig = classify.divides_sigma
    def _lying(f, bit_cap=None):
        truth = _orig(f, bit_cap)
        return (not truth) if (f.alpha, f.p, f.beta) == (3, 7, 2) else truth
    classify.divides_sigma = _lying
"""

FAULTS = {
    "search-k5": _DIVIDES_SIGMA_LIES,
    "equivalence": _DIVIDES_SIGMA_LIES,
    # One tv row fails, so check-lemma exits 2.
    "lemma-oracles": """
        _orig = classify.check_tv
        def _lying(p, k, v, beta1, bit_cap=None):
            return False if (p, k, v, beta1) == (5, 3, 1, 1) else _orig(p, k, v, beta1, bit_cap)
        classify.check_tv = _lying
    """,
    # The tenth sigma query of each client answers one too many.
    "sigma-queries": """
        _orig = cli.sigma_k
        _calls = [0]
        def _lying(n, k):
            _calls[0] += 1
            return _orig(n, k) + (_calls[0] == 10)
        cli.sigma_k = _lying
    """,
}

SITECUSTOMIZE = """\
try:
    from sigmaperfect import classify, cli
except ImportError:  # the benchmark's own process does not import the program
    classify = None
if classify is not None:
{body}
"""


def run_benchmark(workload: str, fault: str | None) -> tuple[int, dict]:
    env = dict(os.environ)
    if fault is not None:
        fault_dir = wl.OUT_DIR / f"fault-{workload}"
        fault_dir.mkdir(parents=True, exist_ok=True)
        body = textwrap.indent(textwrap.dedent(fault).strip(), "    ")
        (fault_dir / "sitecustomize.py").write_text(SITECUSTOMIZE.format(body=body))
        env["PYTHONPATH"] = str(fault_dir)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=wl.ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("FAILED:"):
            print(f"  {workload}: {line[:300]}")
    return proc.returncode, json.loads(lines[-1])


def main() -> int:
    wl.OUT_DIR.mkdir(exist_ok=True)
    problems = []
    rc, result = run_benchmark("lemma-oracles", None)
    if rc != 0 or not result["correct"] or not result["metrics"]:
        problems.append(f"clean lemma-oracles run did not pass: rc={rc} {result}")
    for workload, fault in FAULTS.items():
        rc, result = run_benchmark(workload, fault)
        fired = rc != 0 and not result["correct"] and result["failed"] >= 1 and not result["metrics"]
        print(f"{workload}: {'gate fired' if fired else 'GATE DID NOT FIRE'} (rc={rc}, {result})")
        if not fired:
            problems.append(workload)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
