"""Tests of the benchmark itself: statistics, span arithmetic, references and
a reduced-size run of every workload."""
import json
import shutil
import subprocess
import sys

import pytest
from mpmath import mp, mpf

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import references as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402

SMALL = {
    "reconstruct": {"jobs": [("spin0", 9, 30), ("sd", 14, 30)]},
    "sweep": {"d": 9, "digits": 30, "betas_per_model": 2},
    "baselines": {"betas_per_model": 2, "heavy_every": 2, "pade": (4, 5), "delta_n": 6,
                  "partial_d": 5, "high_digits": 100},
}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(x) for x in range(20, 0, -1)]) == (10.0, 50.0)
    # Below 20 samples the rule would pick a value under the median: the maximum instead.
    assert run.tail([float(x) for x in range(19, 0, -1)]) == (19.0, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 3.0, 0, 7),
        Span(2, "b", 2.0, 5.0, 0, 7),  # overlaps a: covered part counts once
        Span(3, "a", 6.0, 7.0, 0, 7),
        Span(4, "c", 1.5, 2.0, 1, 7),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["busy_s"] == pytest.approx(3.0)
    assert totals["a"]["self_s"] == pytest.approx(2.5)


def test_tracer_records_nested_calls_and_restores_functions():
    from heulag import extrapolant, models, momentrec
    from heulag.models import ModelId
    from heulag.specfun import PrecisionContext

    original = momentrec.rho_eval
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        ctx = PrecisionContext(30)
        mu = momentrec.moments_from_coeffs(models.coefficients(ModelId.SPIN0, 5), 4)
        rec = momentrec.solve_coeffs(momentrec.build_P_exact(4), mu, ctx)
        extrapolant.extrapolate(ModelId.SPIN0, rec, "10", None, ctx)
    finally:
        tracer.uninstall()
    assert momentrec.rho_eval is original and extrapolant.rho_eval is original
    names = [s.name for s in tracer.spans]
    assert names[:4] == ["models.coefficients", "momentrec.moments_from_coeffs",
                         "momentrec.build_P_exact", "momentrec.solve_coeffs"]
    top = names.index("extrapolant.extrapolate")
    children = {s.name for s in tracer.spans if s.parent == top}
    assert children == {"extrapolant.tail_sum", "momentrec.rho_eval"}
    assert all(s.op == 0 and s.end >= s.start for s in tracer.spans)


def test_agree_digits_on_known_values():
    assert ref.agree_digits(mpf("1.001"), 1, 100) == pytest.approx(3.0)
    assert ref.agree_digits(mpf("-2e-7"), mpf("-1e-7"), 50) == 0.0
    assert ref.agree_digits(mpf(5), mpf(5), 60) == 60.0
    with mp.workdps(80):
        assert ref.agree_digits(1 + mpf("1e-50"), 1, 30) == 30.0
        assert ref.agree_digits(1 + mpf("1e-50"), 1, 70) == pytest.approx(50.0)


def test_references_match_heulag_where_both_apply():
    from heulag import closed_form, coefficients, weniger_delta
    from heulag.models import ModelId
    from heulag.specfun import PrecisionContext

    ctx = PrecisionContext(60)
    for model in workloads.MODELS:
        assert ref.agree_digits(closed_form(ModelId(model), "2.5", ctx),
                                ref.closed_form(model, "2.5", 60), 60) >= 59
    a = coefficients(ModelId.SPIN_HALF, 12).a
    exact = ref.fraction_value(ref.delta_transform(a, 2, "1", 10), 90)
    assert ref.agree_digits(weniger_delta(coefficients(ModelId.SPIN_HALF, 12), 10, "1", ctx),
                            exact, 60) >= 59


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    from spans import TRACED_NAMES
    assert len(TRACED_NAMES) == 20
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"{n}.{k}" for n in TRACED_NAMES for k in ("calls", "busy_s", "self_s")} <= names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_run_of_each_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.WORKLOADS[name](3, **SMALL[name])
    result, lines = run.run(wl, 3, 0, trace=False, setup_repeats=1)
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] == len(wl.ops(str(tmp_path)))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reduced_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.Reconstruct(4, **SMALL["reconstruct"])
    result, _ = run.run(wl, 4, 0, trace=True, setup_repeats=1)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["momentrec.solve_coeffs.calls"] == 2
    assert m["extrapolant.extrapolate.busy_s"] >= m["extrapolant.tail_sum.busy_s"] > 0
    assert m["extrapolant.extrapolate.self_s"] < m["extrapolant.extrapolate.busy_s"]
    assert (tmp_path / "reconstruct-seed4-spans.jsonl").is_file()


def test_exits_nonzero_without_heulag_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_evaluations_fail_cleanly_after_a_failed_load(tmp_path):
    from heulag.errors import HeulagError

    wl = workloads.Sweep(5, **SMALL["sweep"])
    wl.setup(str(tmp_path))
    ops = wl.ops(str(tmp_path))
    assert all(not isinstance(op.fn(), Exception) for op in ops)
    (tmp_path / "spin0.cache").write_text("not a cache file\n")
    for op in ops:
        if op.model == "spin0":
            with pytest.raises(HeulagError):
                op.fn()
        else:
            op.fn()


def test_op_latencies_scale_to_reference_speed_and_skip_the_warm_up():
    ref_k = run.REF_KERNEL_S
    passes = [run.Pass(False, 0.0, lat, kern, [], 0, 0) for lat, kern in (
        ([9.0, 9.0], [ref_k, ref_k]),          # warm-up pass: left out
        ([2.0, 4.0], [2 * ref_k, ref_k]),      # first operation ran at half speed
        ([1.0, 3.0], [ref_k, ref_k]),
        ([1.5, 6.0], [ref_k, 2 * ref_k]))]
    assert run.op_latencies(passes) == pytest.approx([1.0, 3.0])
    assert run.op_latencies(passes, scaled=False) == pytest.approx([1.5, 4.0])
    assert run.op_latencies(passes[:1]) == pytest.approx([9.0, 9.0])
