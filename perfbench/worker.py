"""Closed-loop solver: one process, one thread, each solve starting when the
previous one returns.

Usage: python3 worker.py SPEC.json RESULT.json

The spec lists a check set, the timed instances and the number of rounds;
every round solves each timed instance once through ``topocut.cli.main``.
Each answer is compared with the spec's reference; a mismatch, a non-zero
exit code or an exception is a failed solve.  Before every timed solve the
worker also times the machine-speed reference of reference.py, and the
end-to-end metrics are taken over solve times divided by the speed factor
measured just before each solve.  With ``trace`` set, untraced and traced
rounds alternate and the result carries per-layer metrics.  run.py starts it
with PYTHONPATH and the thread variables set.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from topocut import cli
from reference import Reference, speed_factor
from tracer import Tracer, layer_metrics, round_counts


@dataclass
class Solve:
    seconds: float
    ok: bool
    reported_s: float = 0.0
    method: str = ""
    error: str = ""


def solve(argv: list[str], expected: dict[str, str]) -> Solve:
    """Run one ``compute`` call from input files to printed JSON and check it.

    ``cli.main`` is looked up on each call, so an active Tracer sees it.
    """
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed solve, not a failed benchmark
        return Solve(time.perf_counter() - start, False, error=traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    if code != 0:
        return Solve(seconds, False, error=f"exit code {code}")
    try:
        report = json.loads(out.getvalue())
        wrong = [k for k, v in expected.items() if str(report["indices"].get(k)) != v]
        reported_s, method = report["timing_ms"] / 1000.0, report["method"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return Solve(seconds, False, error=f"unreadable report: {exc!r}")
    error = f"wrong {', '.join(wrong)}" if wrong else ""
    return Solve(seconds, not wrong, reported_s, method, error)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    methods: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, s: Solve) -> Solve:
        self.attempted += 1
        self.methods[s.method or "none"] = self.methods.get(s.method or "none", 0) + 1
        if not s.ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {s.error}")
        return s


def run_round(instances: list[dict], tally: Tally) -> list[Solve]:
    return [tally.add(i["name"], solve(i["argv"], i["expected"])) for i in instances]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten solves beyond it, and its value."""
    s = sorted(times)
    if len(s) <= 10:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[-11]


def time_metrics(times: list[float]) -> dict[str, float]:
    return {
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail(times)[1],
        "solves_per_s": len(times) / sum(times),
    }


def measure(spec: dict) -> dict:
    tally = Tally()
    run_round(spec["check"], tally)
    run_round(spec["timed"][:1], tally)  # warm-up, untimed
    timed, rounds = spec["timed"], spec["rounds"]
    result: dict = {}
    if not spec["trace"]:
        reference = Reference()
        times, scaled, factors = [], [], []
        for _ in range(rounds):
            for inst in timed:
                factors.append(speed_factor([reference.seconds()]))
                seconds = tally.add(inst["name"], solve(inst["argv"], inst["expected"])).seconds
                times.append(seconds)
                scaled.append(seconds / factors[-1])
        result["solves"] = len(times)
        result["tail_percentile"] = tail(times)[0]
        result["speed_factor"] = statistics.median(factors)
        result["raw"] = time_metrics(times)
        result["metrics"] = {
            **time_metrics(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        plain: list[Solve] = []
        traced: list[Solve] = []
        per_round = []
        for _ in range(max(1, rounds // 2)):
            plain += run_round(timed, tally)
            with Tracer() as tracer:
                traced += run_round(timed, tally)
            per_round.append(round_counts(tracer.spans, len(timed)))
        p50 = statistics.median(s.seconds for s in plain)
        extra = {
            "cli.reported_share": sum(s.reported_s for s in plain) / sum(s.seconds for s in plain),
            "trace.overhead_ratio": statistics.median(s.seconds for s in traced) / p50,
        }
        result["solves"] = len(plain) + len(traced)
        result["layers"] = layer_metrics(per_round, extra)
        result["missing"] = tracer.missing
    result.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, methods=tally.methods)
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = measure(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
