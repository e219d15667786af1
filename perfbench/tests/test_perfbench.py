"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import readme_check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, execute, rounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _ops(workload, seed, n=3):
    return [[(op.kind, op.params) for op in r] for r in itertools.islice(rounds(workload, seed), n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_operations(workload):
    assert _ops(workload, 1) == _ops(workload, 1)
    assert _ops(workload, 1) != _ops(workload, 2)


# ----------------------------------------------------------------------
# the output check must catch a wrong value the program wrote

CORRUPT_COLUMN = {
    "classify.csv": "c", "flow.csv": "value", "surface.csv": "Jx_plus", "potential.csv": "V",
    "spectrum.csv": "eigenvalue", "hopf_spectrum.csv": "value",
}


def _nudge(x: float) -> str:
    return repr(x * (1.0 + 1e-5) + 1e-9)


def _corrupt_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(CORRUPT_COLUMN[path.name])
    for i in range(len(lines) // 2 or 1, len(lines)):
        cells = lines[i].split(",")
        if cells[col] not in ("nan", ""):
            cells[col] = _nudge(float(cells[col]))
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_json(path: Path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    if path.name == "rep.json":
        payload["matrices"]["Jplus"][1][0][0] = float(_nudge(payload["matrices"]["Jplus"][1][0][0]))
    elif path.name == "flow_crossings.json":
        payload[0]["s"] = float(_nudge(payload[0]["s"]))
    elif path.name == "surface_transition.json":
        payload["s_star"] = float(_nudge(payload["s_star"]))
    elif path.name in ("hopf_window.json", "hopf_axioms.json"):
        payload["q1"] = float(_nudge(payload["q1"]))
    else:
        return
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture
def corrupting(monkeypatch):
    """Patch the CLI's writers so that each output file carries one wrong value."""
    import qsu2.cli
    import qsu2.schrodinger

    write_csv, write_json, peak = qsu2.cli.write_csv, qsu2.cli.write_json, qsu2.schrodinger.commensurability_peak

    def bad_csv(path, header, rows):
        out = write_csv(path, header, rows)
        _corrupt_csv(Path(out))
        return out

    def bad_json(path, payload):
        out = write_json(path, payload)
        _corrupt_json(Path(out))
        return out

    def bad_peak(*args, **kwargs):
        value, lag = peak(*args, **kwargs)
        return value + 1e-6, lag

    monkeypatch.setattr(qsu2.cli, "write_csv", bad_csv)
    monkeypatch.setattr(qsu2.cli, "write_json", bad_json)
    monkeypatch.setattr(qsu2.schrodinger, "commensurability_peak", bad_peak)


def _one_of_each_variant(workload):
    first = {}
    for op in itertools.chain.from_iterable(itertools.islice(rounds(workload, 3), 2)):
        first.setdefault((op.kind, op.params.get("what"), "c" in op.params), op)
    return list(first.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_catches_an_injected_wrong_value(workload, tmp_path, corrupting):
    for op in _one_of_each_variant(workload):
        if op.kind == "classify" and "c" in op.params:
            continue  # a point query may legitimately write no rows to corrupt
        outcome = execute(op, tmp_path)
        assert outcome.error and outcome.error.startswith("check:"), (op, outcome.error)


def test_error_rate_counts_corrupted_outputs(tmp_path, monkeypatch):
    warm, out = run.run_rounds("sweep", 5, 0.0, tmp_path)
    assert not any(o.error for o in warm + out)

    import qsu2.cli

    write_csv = qsu2.cli.write_csv

    def bad_csv(path, header, rows):
        out = write_csv(path, header, rows)
        if Path(out).name == "flow.csv":
            _corrupt_csv(Path(out))
        return out

    monkeypatch.setattr(qsu2.cli, "write_csv", bad_csv)
    warm, out = run.run_rounds("sweep", 5, 0.0, tmp_path)
    outcomes = warm + out
    failed = [o for o in outcomes if o.error]
    assert 0 < len(failed) / len(outcomes) < 1
    assert {o.op.kind for o in failed} == {"flow"}


def test_speed_factors_rescale_to_the_reference_kernel_time():
    # a host twice as slow doubles the kernel time, which halves the factor
    assert speed.factors([2.0 * speed.REF_S] * 5) == [0.5] * 4
    # each factor takes the median of the samples around its operation
    slow_then_fast = [2.0 * speed.REF_S] * 20 + [speed.REF_S] * 20
    got = speed.factors(slow_then_fast)
    assert got[0] == 0.5 and got[-1] == 1.0 and len(got) == 39
    assert speed.kernel_s() > 0.0


def test_classification_oracle_helpers():
    # root-of-unity detection decides Mixed2a; [2]^2 at s = 0.3 is the N = 3 ladder
    assert checks.rational_pi(3.141592653589793 / 3) and not checks.rational_pi(1.013)
    assert [n for n in checks.finite_dims(0.3, float(checks.bracket(2.0, 0.3)) ** 2)] == [3]


def test_readme_check_reports_known_defects(capsys):
    assert readme_check.main() == 0
    out = capsys.readouterr().out
    assert out.count("known defect:") == len(readme_check.KNOWN_DEFECTS)
    assert "UNEXPECTED" not in out
