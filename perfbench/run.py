"""rlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dense_sums --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports rlab from ``src/`` next
to this directory, makes the workload's inputs from ``--seed``, runs one
untimed warm-up operation, and then repeats whole rounds of the workload's
operations until ``--seconds`` have passed.  Each operation is an rlab CLI
call made in this process through ``rlab.cli.main`` and writing its report
with ``--out``; its exit code and report are checked after it returns.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics ``wall_s`` (one pass over the
operations, each at its median time over the rounds),
``setup_s`` (process start to the end of the warm-up) and ``peak_rss_mb``.
``--trace 1`` spends the first half of the time untraced and the second half
with the per-layer spans of ``perfbench/tracing.py`` installed, and reports
those layers per round, plus ``trace.overhead_s``.
"""

import os
import sys
import time

START = float(os.environ.pop("PERFBENCH_T0", "0")) or time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Read only when the interpreter and the BLAS library start, so they are set
# by re-executing the script rather than by assigning to os.environ later.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_environment() -> None:
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = {**os.environ, **PINNED_ENV, "PERFBENCH_T0": repr(START)}
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def import_rlab():
    """rlab from this checkout's ``src/``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "rlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rlab sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import rlab.cli

    if Path(rlab.cli.__file__).resolve().parent != src / "rlab":
        raise SystemExit(f"perfbench: imported rlab from {rlab.cli.__file__}, not {src}")
    return rlab.cli


class Runner:
    """Runs operations through ``cli.main`` and judges each one.

    An operation fails when its exit code is not 0, when it raises, when its
    check rejects its report, or when its report differs from the one it
    wrote in the first round (same inputs, same seed).  A report is checked
    the first time it appears; later rounds compare its digest.
    """

    def __init__(self, cli, ops, work: Path):
        self.cli = cli
        self.ops = ops
        self.work = work
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def execute(self, index: int) -> tuple[int, float]:
        op = self.ops[index]
        argv = ["--seed", str(op.seed), "--out", str(self.report_path(index)), *op.argv]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # an uncaught error is that operation's failure
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start

    def report_path(self, index: int) -> Path:
        return self.work / f"op{index:02d}.json"

    def judge(self, index: int, code: int) -> str | None:
        from perfbench.checks import CheckFailed

        if code != 0:
            return f"exit code {code}"
        text = self.report_path(index).read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        try:
            if index not in self.digests:
                self.digests[index] = digest
                self.ops[index].check(json.loads(text))
            elif self.digests[index] != digest:
                raise CheckFailed("report differs from the first round's")
        except CheckFailed as exc:
            self.correct = False
            return str(exc)
        return None

    def round(self) -> list[float]:
        """One pass over the operations; returns each one's wall time."""
        times = []
        for index, op in enumerate(self.ops):
            code, elapsed = self.execute(index)
            times.append(elapsed)
            self.attempted += 1
            problem = self.judge(index, code)
            if problem:
                self.failed += 1
                print(f"perfbench: FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        return times

    def rounds(self, seconds: float) -> list[list[float]]:
        """Whole rounds until `seconds` have passed; one list of times each."""
        times: list[list[float]] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            gc.collect()
            times.append(self.round())
        return times


def pass_time(times: list[list[float]]) -> float:
    """Wall time of one pass over the operations: the sum of each operation's
    median over the rounds, which a slow spell on a shared host moves less
    than it moves a whole round."""
    return sum(statistics.median(op_times) for op_times in zip(*times))


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cli = import_rlab()
    import numpy as np

    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    work = Path(__file__).resolve().parent / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(cli, WORKLOADS[args.workload](np.random.default_rng(args.seed), work), work)
    runner.execute(0)  # warm-up; its twin in every round is checked
    setup_s = time.time() - START

    if args.trace:
        from perfbench import tracing

        untraced = runner.rounds(args.seconds / 2)
        tracer = tracing.install()
        traced = runner.rounds(args.seconds / 2)
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_s"] = {
            "value": pass_time(traced) - pass_time(untraced),
            "unit": "s",
        }
        tracer.write(work / "trace.json")
    else:
        metrics = {
            "wall_s": {"value": pass_time(runner.rounds(args.seconds)), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
