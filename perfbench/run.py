"""modclose benchmark: seeded CLI requests in a closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload {universe,closure,integer} \
        --seed N --seconds S --trace {0,1}

Each request is a fresh ``modclose`` process (``child.py``), so the
module-level caches start cold as they do for users.  Requests come in
rounds that issue every slot of the workload once, and a pass of
``VARIANTS[workload]`` rounds issues every request once (see
``workloads.py``).  The first round always completes; later rounds run until
``--seconds`` is up.  A run keeps whole passes only, when at least one
completed, so every seed measures the same requests; otherwise it keeps the
complete rounds.  Answers are checked after the loop (``checks.py``).

``--trace 0`` prints the end-to-end metrics; the JSON gives the times at a
reference speed (see ``REFERENCE_S``).  ``--trace 1`` runs every
request untraced and then traced (``traced.py``), checks that both print
the same bytes, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import harness
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"

# per-request cap: a request still running after it counts as a timeout
CAP_S = {"universe": 30.0, "closure": 30.0, "integer": 5.0}
TRACED_CAP_FACTOR = 3.0

# The machine's speed drifts by tens of percent within minutes (a shared
# VM), so the end-to-end times are reported at a reference speed: reference.py
# runs before every REFERENCE_EVERY-th request, and times are scaled by
# REFERENCE_S / (mean reference wall time), rates by its inverse.  The mean,
# not the median: the machine alternates between fast and slow spells, and
# the requests see the average of them.
REFERENCE_S = 0.065
REFERENCE_EVERY = 3
REFERENCE_CAP_S = 10.0

E2E_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {m: u for m, u, _, _ in spans.LAYER_METRICS}
LAYER_UNITS.update({"cli.failed": "ratio", "trace.overhead_ratio": "ratio"})


@dataclass
class Sample:
    request: workloads.Request
    run: harness.Exit
    failure: str | None
    latency_s: float
    setup_s: float | None
    rss_kb: int
    stdout: bytes
    traced: harness.Exit | None = None
    traced_stdout: bytes | None = None
    trace: dict | None = None


class DeadlineReached(Exception):
    pass


def _spawn(args: list[str], cap: float, deadline: float | None, tag: str):
    """Run ``python3 ARGS`` from the repository root; return (Exit, stdout, stderr)."""
    budget = cap
    if deadline is not None:
        budget = min(cap, deadline - time.monotonic())
        if budget <= 0:
            raise DeadlineReached
    out, err = WORK / f"{tag}.out", WORK / f"{tag}.err"
    ex = harness.spawn([sys.executable, *args], ROOT, budget, out, err)
    if ex.killed and budget < cap:
        raise DeadlineReached
    return ex, out.read_bytes(), err.read_bytes()


def _run_child(script: str, req, cap: float, deadline: float | None, tag: str):
    """Spawn one CLI process through ``script``; return (Exit, stdout, stderr, side file)."""
    side = WORK / f"{tag}.side"
    side.unlink(missing_ok=True)
    ex, out, err = _spawn([str(BENCH / script), str(side), *req.argv], cap, deadline, tag)
    return ex, out, err, side


def measure(req, cap: float, deadline: float | None, trace: bool) -> Sample:
    ex, stdout, stderr, side = _run_child("child.py", req, cap, deadline, "req")
    failure = harness.classify(ex.exit_code, ex.killed, stderr)
    # a killed child leaves no side file; its RSS is then wait4's upper bound
    setup, rss_kb = None, ex.rss_kb
    if side.exists():
        mark, rss = side.read_text().split()
        setup, rss_kb = float(mark) - ex.started, int(rss)
    sample = Sample(
        request=req, run=ex, failure=failure,
        latency_s=cap if ex.killed else ex.elapsed_s, setup_s=setup, rss_kb=rss_kb,
        stdout=stdout,
    )
    if trace and not ex.killed:
        tex, tout, _, tside = _run_child(
            "traced.py", req, cap * TRACED_CAP_FACTOR, deadline, "traced"
        )
        sample.traced, sample.traced_stdout = tex, tout
        if tside.exists():
            sample.trace = json.loads(tside.read_text())
    return sample


def run_loop(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds until the deadline, with a reference process before every
    REFERENCE_EVERY-th request; then keep whole passes only, when at least
    one completed, so that every seed measures the same requests.  Returns
    the kept rounds and the wall times of the reference processes."""
    cap = CAP_S[workload]
    per_pass = workloads.VARIANTS[workload]
    start = pass_start = time.monotonic()
    deadline = start + seconds
    done: list[list[Sample]] = []
    references: list[float] = []
    issued = 0
    for round_no, reqs in enumerate(workloads.rounds(workload, seed)):
        for req in reqs:
            req.write_workspace(ROOT)
        limit = deadline if round_no else None
        samples = []
        try:
            for req in reqs:
                if issued % REFERENCE_EVERY == 0:
                    ref = _spawn([str(BENCH / "reference.py")], REFERENCE_CAP_S, limit, "reference")
                    references.append(ref[0].elapsed_s)
                issued += 1
                samples.append(measure(req, cap, limit, trace))
        except DeadlineReached:
            break
        done.append(samples)
        now = time.monotonic()
        if len(done) % per_pass == 0:
            # stop when another pass as long as the last cannot finish in time
            if now + (now - pass_start) > deadline:
                break
            pass_start = now
        if now >= deadline:
            break
    if len(done) >= per_pass:
        del done[len(done) - len(done) % per_pass:]
    return done, references


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """The end-to-end metrics as measured, in wall time."""
    ok = sum(1 for s in samples if s.failure is None)
    latencies = [s.latency_s for s in samples]
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    return {
        "throughput_rps": ok / sum(s.run.elapsed_s for s in samples),
        "latency_p50_s": harness.percentile(latencies, 50)[0],
        "latency_p90_s": harness.percentile(latencies, 90)[0],
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
    }


def at_reference_speed(metrics: dict[str, float], speed: float) -> dict[str, float]:
    """Times divided and rates multiplied by ``speed``, the machine's speed
    during the run relative to the one where reference.py takes REFERENCE_S."""
    out = dict(metrics)
    out["throughput_rps"] = metrics["throughput_rps"] / speed
    for name in ("latency_p50_s", "latency_p90_s", "setup_s"):
        out[name] = metrics[name] * speed
    return out


def check_answers(samples: list[Sample], expected: dict) -> tuple[list[str], int]:
    """Mark wrong answers as failures; return the problems and how many
    answers were compared with a recorded answer."""
    problems, compared = [], 0
    for s in samples:
        if s.failure is not None:
            continue
        reason, recorded = checks.check(s.request, s.stdout, expected)
        compared += recorded
        if reason is not None:
            s.failure = "wrong"
            problems.append(f"{s.request.kind} {s.request.key}: {reason}")
    return problems, compared


def check_tracing(samples: list[Sample]) -> list[str]:
    problems = []
    for s in samples:
        if s.traced is None or s.traced.killed:
            continue
        if s.traced_stdout != s.stdout or s.traced.exit_code != s.run.exit_code:
            problems.append(f"{s.request.kind} {s.request.key}: traced output differs")
        if s.trace is None:
            problems.append(f"{s.request.kind} {s.request.key}: no trace written")
        elif s.trace["unwrapped"]:
            problems.append("unwrapped entry points: " + ", ".join(s.trace["unwrapped"]))
    return problems


def failure_summary(samples: list[Sample]) -> str:
    by_kind: dict[str, Counter] = {}
    totals = Counter(s.request.kind for s in samples)
    for s in samples:
        if s.failure is not None:
            by_kind.setdefault(s.request.kind, Counter())[s.failure] += 1
    if not by_kind:
        return "none"
    parts = []
    for kind, causes in sorted(by_kind.items()):
        detail = ", ".join(f"{c} {n}" for c, n in sorted(causes.items()))
        parts.append(f"{kind} {sum(causes.values())}/{totals[kind]} ({detail})")
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through harness.spawn, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "modclose" / "cli.py").is_file():
        print(f"perfbench: no modclose sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.set_int_max_str_digits(0)  # reports carry integers of any size
    env = harness.environment()
    expected = checks.load_expected().get(args.workload, {})
    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)

    start = time.monotonic()
    rounds, references = run_loop(args.workload, args.seed, args.seconds, trace)
    loop_s = time.monotonic() - start
    samples = [s for r in rounds for s in r]
    problems, compared = check_answers(samples, expected)
    if trace:
        problems += check_tracing(samples)
    failed = sum(1 for s in samples if s.failure is not None)

    measured = end_to_end(samples)
    reference_s = statistics.fmean(references)
    e2e = at_reference_speed(measured, REFERENCE_S / reference_s)
    p90, beyond = harness.percentile([s.latency_s for s in samples], 90)
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(rounds)} requests={len(samples)} loop_s={loop_s:.1f}"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(f"answers checked={len(samples) - failed} against_recorded={compared}")
    for p in problems[:20]:
        print("problem " + p)
    print(f"failures {failure_summary(samples)}")
    print(f"error_rate = {failed / len(samples):.4f} ratio ({failed} of {len(samples)})")
    print(f"reference mean = {reference_s:.6g} s over {len(references)} runs "
          f"(reference speed: {REFERENCE_S} s)")
    for name, value in e2e.items():
        line = f"{name} = {value:.6g} {E2E_UNITS[name]}"
        if value != measured[name]:
            line += f" at reference speed, {measured[name]:.6g} as measured"
        if name == "latency_p90_s":
            line += f" (n={len(samples)}, {beyond} beyond)"
        print(line)

    if trace:
        traced = [s for s in samples if s.trace is not None]
        metrics = spans.layer_metrics([s.trace for s in traced])
        metrics["cli.failed"] = failed / len(samples)
        pairs = [s for s in traced if s.traced is not None]
        untraced_s = sum(s.run.elapsed_s for s in pairs)
        metrics["trace.overhead_ratio"] = (
            sum(s.traced.elapsed_s for s in pairs) / untraced_s if untraced_s else 0.0
        )
        traced_lat = [s.traced.elapsed_s for s in pairs]
        if traced_lat:
            print(
                "traced latency_p50_s = %.6g s, latency_p90_s = %.6g s "
                "(untraced %.6g s, %.6g s; %d pairs)"
                % (harness.percentile(traced_lat, 50)[0], harness.percentile(traced_lat, 90)[0],
                   harness.percentile([s.run.elapsed_s for s in pairs], 50)[0],
                   harness.percentile([s.run.elapsed_s for s in pairs], 90)[0], len(pairs))
            )
        units = LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS

    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=len(rounds), problems=problems,
                  measured=measured, references=references,
                  failures=failure_summary(samples),
                  requests=[{"kind": s.request.kind, "key": s.request.key,
                             "latency_s": s.latency_s, "setup_s": s.setup_s,
                             "rss_kb": s.rss_kb, "failure": s.failure,
                             "traced_s": s.traced.elapsed_s if s.traced else None}
                            for s in samples])
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
