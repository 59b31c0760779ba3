"""Unit tests of the benchmark harness (not of modclose).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- seeded generator -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
def test_same_seed_gives_identical_requests(workload):
    a = next(workloads.rounds(workload, 7))
    b = next(workloads.rounds(workload, 7))
    assert [(r.argv, r.workspace) for r in a] == [(r.argv, r.workspace) for r in b]


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
def test_round_issues_every_slot_once(workload):
    first = next(workloads.rounds(workload, 3))
    assert sorted(r.slot for r in first) == list(range(len(workloads.SLOTS[workload])))


def test_different_seeds_give_different_inputs():
    a = [r.key for r in next(workloads.rounds("integer", 1))]
    b = [r.key for r in next(workloads.rounds("integer", 2))]
    assert a != b


def test_request_is_pure_function_of_slot_and_variant():
    r1 = workloads.make_request("closure", 3, 2)
    r2 = workloads.make_request("closure", 3, 2)
    assert r1 == r2
    assert r1.key in " ".join(r1.argv)  # the workspace path names the key


def _valuation(f, p):
    v = 0
    while f % p == 0:
        f //= p
        v += 1
    return v


def _injective(n, chain):
    """Structure criterion over Z/n: every p-part of every invariant factor
    is 1 or the full p-part of n."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return all(
        n % f == 0 and all(_valuation(f, p) in (0, _valuation(n, p)) for p in primes)
        for f in chain
    ) and all(b % a == 0 for a, b in zip(chain, chain[1:]))


def test_subcategory_objects_are_injective_and_universe_objects_fit():
    for n, max_gens, max_order, chains in workloads.UNIVERSE_SLOTS:
        for chain in chains:
            assert _injective(n, chain)
            assert len(chain) <= max_gens and math.prod(chain) <= max_order
    for n, _, _, chains, _ in workloads.CLOSURE_SLOTS:
        assert all(_injective(n, chain) for chain in chains)


def test_every_request_has_a_recorded_answer():
    expected = checks.load_expected()
    for workload in workloads.SLOTS:
        missing = [r.key for r in workloads.all_requests(workload)
                   if r.key not in expected.get(workload, {})]
        assert not missing, f"{workload}: rerun perfbench/record.py"


# -- percentiles --------------------------------------------------------------------


def test_percentile_reports_the_tail_it_rests_on():
    values = [float(i) for i in range(1, 101)]  # 1..100
    p90, beyond = harness.percentile(values, 90)
    assert 90 < p90 < 91  # p * (n + 1) for evenly spaced samples
    assert beyond == 10
    p50, beyond50 = harness.percentile(values, 50)
    assert p50 == pytest.approx(50.5, abs=0.01)
    assert beyond50 == 50


def test_percentile_does_not_jump_when_neighbours_swap():
    base = [1.0] * 45 + [2.0, 3.0] + [10.0] * 5
    swapped = [1.0] * 45 + [3.0, 2.0] + [10.0] * 5
    assert harness.percentile(base, 90) == harness.percentile(swapped, 90)
    moved = [1.0] * 45 + [2.0, 3.3] + [10.0] * 5
    assert 0 < harness.percentile(moved, 90)[0] - harness.percentile(base, 90)[0] < 0.3


def test_percentile_of_few_samples_has_a_thin_tail():
    p90, beyond = harness.percentile([3.0, 1.0, 2.0], 90)
    assert 2.0 < p90 < 3.0
    assert beyond == 1
    assert harness.percentile([4.0], 90) == (pytest.approx(4.0), 0)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    names = ["outer", "mid", "leaf"]
    spans_ = [
        (0, 0, 100, -1),  # outer: 100
        (1, 10, 50, 0),  # mid: 40, child of outer
        (2, 20, 30, 1),  # leaf: 10, child of mid
        (2, 60, 70, 0),  # leaf: 10, child of outer
    ]
    st = spans.self_times(names, spans_)
    assert st["outer"] == (1, 100 - 40 - 10)
    assert st["mid"] == (1, 40 - 10)
    assert st["leaf"] == (2, 20)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 30 + 10
    assert spans.covered_ns(0, 10, []) == 0


def test_layer_metrics_are_per_request_means():
    doc = {
        "names": ["matrices.snf"],
        "spans": [(0, 0, 1_000_000_000, -1)],
        "counts": {"matrices.kernel_calls": 4},
        "maxima": {"matrices.snf_max_bits": 12},
    }
    m = spans.layer_metrics([doc, doc])
    assert m["matrices.snf_calls"] == 1
    assert m["matrices.snf_s"] == pytest.approx(1.0)
    assert m["matrices.kernel_calls"] == 4
    assert m["matrices.snf_max_bits"] == 12
    assert m["homs.hom_group_repeat_ratio"] == 0.0


# -- failure classes --------------------------------------------------------------------


def test_classify_exit_code_timeout_and_traceback():
    tb = b"Traceback (most recent call last):\n  ...\nValueError: x\n"
    assert harness.classify(0, False, b"") is None
    assert harness.classify(2, False, b"modclose: error: bad input\n") == "exit2"
    assert harness.classify(1, False, tb) == "traceback"
    assert harness.classify(None, True, b"") == "timeout"
    assert harness.classify(None, True, tb) == "timeout"


def test_spawn_kills_a_child_past_its_cap(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
    ex = harness.spawn(cmd, tmp_path, 0.3, tmp_path / "o", tmp_path / "e")
    assert ex.killed and ex.exit_code is None
    assert 0.3 <= ex.elapsed_s < 5


def test_spawn_reports_exit_code_and_rss(tmp_path):
    cmd = [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"]
    ex = harness.spawn(cmd, tmp_path, 30, tmp_path / "o", tmp_path / "e")
    assert not ex.killed and ex.exit_code == 3
    assert ex.rss_kb > 0
    assert (tmp_path / "o").read_bytes() == b"hi\n"


# -- answer checks ------------------------------------------------------------------------


def test_snf_check_accepts_a_true_smith_form_and_rejects_a_false_one():
    req = workloads.Request("integer", 0, 0, "snf", ("snf", "--matrix", "[[2,4],[6,8]]"), None, "k")
    good = {"d": [2, 4], "u": [[1, 0], [3, -1]], "v": [[1, -2], [0, 1]]}
    assert checks.check_snf(list(req.argv), good) is None
    bad = dict(good, d=[1, 8])
    assert checks.check_snf(list(req.argv), bad) is not None


def test_hom_check_rejects_a_map_that_is_not_well_defined():
    ws = {"ring": "Z", "modules": {"M": {"generators": 1, "relations": [[4]]},
                                    "N": {"generators": 1, "relations": [[6]]}}}
    argv = ["hom", "--module", "M", "--cod", "N"]
    assert checks.check_hom(argv, ws, {"structure": [2], "generators": [[[3]]]}) is None
    assert checks.check_hom(argv, ws, {"structure": [2], "generators": [[[1]]]}) is not None


def test_echelon_membership():
    lat = checks.Echelon(2, [[4, 6], [6, 9]])  # spans 2*(2,3)... and (6,9)
    assert lat.contains([2, 3])
    assert lat.contains([0, 0])
    assert not lat.contains([1, 0])
    assert checks.rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_check_uses_the_recorded_answer():
    req = workloads.Request("integer", 0, 0, "bounded", ("bounded", "--module", "M"),
                            json.dumps({"ring": "Z", "modules": {"M": {"generators": 1, "relations": [[3]]}}}).encode(),
                            "key")
    out = json.dumps({"bounded": True, "module": "M"}).encode()
    good = {"key": {"answer": checks.answer_hash("bounded", json.loads(out))}}
    assert checks.check(req, out, good) == (None, True)
    assert checks.check(req, out, {"key": {"answer": "0" * 20}})[0] is not None
    assert checks.check(req, out, {})[0] is not None
    wrong = json.dumps({"bounded": False, "module": "M"}).encode()
    assert checks.check(req, wrong, good)[0] is not None


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
def test_a_pass_issues_every_request_once(workload):
    gen = workloads.rounds(workload, 11)
    n_variants = workloads.VARIANTS[workload]
    issued = [(r.slot, r.variant) for _ in range(n_variants) for r in next(gen)]
    everything = {(s, v) for s in range(len(workloads.SLOTS[workload])) for v in range(n_variants)}
    assert sorted(issued) == sorted(everything)


def test_benchmark_json_names_every_metric_with_its_unit():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.SLOTS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS


# -- launchers ------------------------------------------------------------------------


def _launch(script, side, *argv):
    import subprocess

    return subprocess.run(
        [sys.executable, str(BENCH / script), str(side), *argv],
        capture_output=True, timeout=120, check=False,
    )


def test_traced_run_wraps_everything_and_prints_the_same_bytes(tmp_path):
    argv = ("snf", "--matrix", "[[2,4],[6,8]]")
    plain = _launch("child.py", tmp_path / "mark", *argv)
    traced = _launch("traced.py", tmp_path / "trace", *argv)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    doc = json.loads((tmp_path / "trace").read_text())
    assert doc["unwrapped"] == []
    assert "matrices.snf" in doc["names"] and doc["spans"]
    mark, rss_kb = (tmp_path / "mark").read_text().split()
    assert float(mark) > 0 and int(rss_kb) > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "universe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_coverage_check_finds_a_binding_left_unwrapped():
    import subprocess

    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import traced\n"
        "from modclose import closure, homs\n"
        "originals = traced.install(traced.Tracer())\n"
        "assert traced.unwrapped_references(originals) == []\n"
        "assert closure.hom_group is homs.hom_group\n"
        "closure.hom_group = homs.hom_group.__wrapped__\n"
        "print(traced.unwrapped_references(originals))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(BENCH.parent / "src")],
        capture_output=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == b"['modclose.closure.hom_group']"
