"""Record the expected answers of every request the benchmark can issue.

Usage (from the repository root):

    python3 perfbench/record.py [--workload NAME ...]

Runs every (slot, variant) request of the named workloads (all by default)
that has no recorded answer yet once with the current sources and a 60 s
cap, checks the answer's properties, and stores the hash of its canonical
fields in ``perfbench/expected.json`` with the outcome and wall time.
Where the CLI's ``--oracle`` is feasible (verify, closure, free-rank,
bounded) the request is run again with it and the verdict is stored too; a
disagreement is an error.  Entries of requests that no slot issues any more
are dropped.  Rerun after any change to ``workloads.py`` (delete
``expected.json`` to record everything again); the benchmark reports a
request it cannot find here as a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import harness
import workloads
from run import ROOT, WORK, _run_child

ORACLE_KINDS = ("verify", "closure", "free-rank", "bounded")
CAP_S = 60.0  # generous, so that requests past the benchmark's cap get an answer too


def oracle_verdict(req, cap: float) -> str:
    oracle_req = workloads.Request(
        req.workload, req.slot, req.variant, req.kind,
        req.argv + ("--oracle",), req.workspace, req.key,
    )
    ex, stdout, stderr, _ = _run_child("child.py", oracle_req, cap, None, "oracle")
    if ex.killed:
        return "timeout"
    if ex.exit_code == 2 and b"infeasible" in stderr:
        return "infeasible"
    try:
        agrees = json.loads(stdout)["oracle"]["agrees"]
    except (ValueError, KeyError, TypeError):
        return f"exit{ex.exit_code}"
    return "agrees" if agrees else "disagrees"


def record(workload: str, known: dict) -> dict:
    out = {}
    for req in workloads.all_requests(workload):
        if req.key in known:
            out[req.key] = known[req.key]
            continue
        req.write_workspace(ROOT)
        ex, stdout, stderr, _ = _run_child("child.py", req, CAP_S, None, "record")
        outcome = harness.classify(ex.exit_code, ex.killed, stderr) or "ok"
        answer = None
        if outcome == "ok":
            reason, _ = checks.check(req, stdout, {req.key: {"answer": None}})
            if reason is not None:
                raise SystemExit(f"{workload} {req.key}: {reason}")
            answer = checks.answer_hash(req.kind, json.loads(stdout))
        entry = {
            "slot": req.slot, "variant": req.variant, "kind": req.kind,
            "outcome": outcome, "answer": answer, "seconds": round(ex.elapsed_s, 3),
        }
        if outcome == "ok" and req.kind in ORACLE_KINDS:
            entry["oracle"] = oracle_verdict(req, CAP_S)
            if entry["oracle"] == "disagrees":
                raise SystemExit(f"{workload} {req.key}: oracle disagrees")
        out[req.key] = entry
        print(workload, req.slot, req.variant, req.kind, outcome,
              entry["seconds"], entry.get("oracle", "-"), flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.SLOTS))
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)
    WORK.mkdir(exist_ok=True)
    path = checks.EXPECTED_FILE
    doc = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or sorted(workloads.SLOTS):
        doc[workload] = record(workload, doc.get(workload, {}))
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
