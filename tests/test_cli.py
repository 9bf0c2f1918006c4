"""Command-line surface: subcommands, output formats, exit codes and
byte-level determinism; and the coefficient-cache file functions
write_cache and load_cache, called directly."""
import dataclasses
import json
import os
import runpy
import subprocess
import sys
import warnings

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_pos, round_nearest

import heulag
from heulag import CacheMismatchError, ModelId, cli, comparators, extrapolant
from heulag.cli import _agree_digits, _bracket, _fmt, load_cache, main, write_cache
import cli_golden
import frozen
from conftest import residual

def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_child(args):
    """`python -m heulag.cli args` in a child importing this process's heulag."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(heulag.__file__)))}
    return subprocess.run([sys.executable, "-m", "heulag.cli", *args],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# exact / series.
# ---------------------------------------------------------------------------

def test_exact_markdown(capsys):
    code, out, _ = run(["exact", "--model", "spin0", "--beta", "0.01",
                        "--digits", "60"], capsys)
    assert code == 0
    assert "| beta | exact |" in out
    assert "0.00000193238479692775524980520558841710582" in out


def test_exact_oracle_column(capsys):
    code, out, _ = run(["exact", "--model", "sd", "--beta", "0.1",
                        "--digits", "60", "--oracle"], capsys)
    assert code == 0
    assert "oracle" in out
    # both columns show the same value through the quadrature's accuracy
    assert out.count("0.00040736197107") == 2


def test_module_entry_runs_main(monkeypatch, capsys):
    # `python -m heulag.cli` runs main on sys.argv and exits with its code
    argv = ["exact", "--beta", "1", "--digits", "30"]
    expected = run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["heulag", *argv])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # heulag.cli is already imported
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("heulag.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == expected


def test_exact_oracle_failure_exits_2_without_traceback():
    r = _run_child(["exact", "--beta", "1e30", "--oracle"])
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: quadrature error estimate 1.0 too large for 60 digits\n"


def test_exact_rejects_negative_beta(capsys):
    code, _, err = run(["exact", "--model", "spin0", "--beta", "-1"], capsys)
    assert code == 2
    assert "out of scope" in err


def test_exact_empty_beta_list(capsys):
    code, out, _ = run(["exact", "--model", "spin0", "--beta", ""], capsys)
    assert code == 0
    assert "| beta | exact |" in out  # header only, no rows


def test_exact_skips_an_empty_beta(capsys):
    code, out, _ = run(["exact", "--beta", "1,,2", "--format", "csv"], capsys)
    assert code == 0
    assert [l.split(",")[0] for l in out.splitlines()] == ["beta", "1", "2"]


def test_exact_csv_and_json(capsys):
    code, out, _ = run(["exact", "--beta", "0.01,0.1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "beta,exact"
    assert len(out.splitlines()) == 3

    code, out, _ = run(["exact", "--beta", "0.01", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "exact"
    # numeric payloads are decimal strings, never JSON numbers
    assert isinstance(doc["rows"][0]["exact"], str)
    assert isinstance(doc["rows"][0]["beta"], str)


def test_series_requires_truncation(capsys):
    code, _, err = run(["series", "--model", "sd", "--beta", "0.01"], capsys)
    assert code == 2
    assert "truncation" in err


def test_series_row(capsys):
    code, out, _ = run(["series", "--model", "sd", "--beta", "0.01",
                        "--truncation", "20", "--format", "csv"], capsys)
    assert code == 0
    assert "0.00004156814549649017911120" in out


def test_invalid_beta_string(capsys):
    code, _, err = run(["exact", "--beta", "abc"], capsys)
    assert code == 2
    assert "invalid beta" in err


@pytest.mark.parametrize("beta", ["nan", "inf"])
@pytest.mark.parametrize("argv", [["exact"], ["extrapolate", "--moments", "5", "--digits", "30"]])
def test_non_finite_beta_exits_2(argv, beta, capsys):
    code, out, err = run(argv + ["--beta", beta], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.fixture
def int_str_limit():
    """CPython's default integer-string limit of 4300 digits, pinned for the
    test; interpreters without the limit (before 3.10.7) skip."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer-string limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 11: evaluate's exact sum of a tail and a delta "
                          "thousands of bits apart exceeds nstr's integer-string limit")
@pytest.mark.parametrize("moments, beta", [("50", "1e-100"), ("10", "1e-1000")])
def test_far_weak_field_extrapolate_ends_in_one_error_line(moments, beta, capsys, int_str_limit):
    code, _, err = run(["extrapolate", "--moments", moments, "--beta", beta], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# The cache file: write_cache and load_cache.
# ---------------------------------------------------------------------------

def _written(path, moments=10, digits=30):
    """Lines of a fresh spin0 reconstruction written to `path`."""
    rec = heulag.reconstruct(ModelId.SPIN0, moments, heulag.PrecisionContext(digits))
    write_cache(str(path), rec)
    return path.read_text().splitlines()


def test_reconstruct_writes_cache(tmp_path):
    cache = tmp_path / "spin0.cache"
    lines = _written(cache, 50, 60)
    header = dict(l.lstrip("# ").split(": ") for l in lines[1:6])
    assert mpf(header.pop("residual_norm")) < mpf("1e-45")
    assert header == {"model": "spin0", "d": "49", "digits": "60",
                      "generator": cli.GENERATOR_VERSION}
    body = [l for l in lines if l and not l.startswith("#")]
    assert len(body) == 50
    # full-precision decimal strings
    assert all(len(l.replace(".", "").replace("-", "").lstrip("0")) >= 60 for l in body)
    # no stray temp files
    assert list(tmp_path.iterdir()) == [cache]


def test_reconstruct_deterministic_bytes(tmp_path):
    # two independent solves write the same bytes
    c1, c2 = tmp_path / "a.cache", tmp_path / "b.cache"
    assert _written(c1, 30, 40) == _written(c2, 30, 40)
    assert c1.read_bytes() == c2.read_bytes()


@pytest.mark.parametrize("model, moments, digits",
                         [(ModelId.SELF_DUAL, 6, 30), (ModelId.SPIN0, 100, 60)])
def test_cache_round_trip(model, moments, digits, tmp_path, reconstruct):
    # The file keeps every bit: rounded to the written mantissa's width, each
    # loaded coefficient is the written one bit for bit. Loading parses at
    # more bits than were written, so a rewrite of a loaded cache keeps the
    # header's bytes but carries longer coefficient lines, which still round
    # back to the same coefficients. The loaded record derives its residual
    # from its own c, which the header's 8 digits match.
    rec = reconstruct(model, moments, digits)

    def widths_match(loaded):
        return [mpf_pos(a._mpf_, b._mpf_[3], round_nearest) for a, b in zip(loaded.c, rec.c)] \
            == [b._mpf_ for b in rec.c]

    first, second = tmp_path / "a.cache", tmp_path / "b.cache"
    write_cache(str(first), rec)
    loaded, stored = load_cache(str(first))
    assert widths_match(loaded)
    assert (loaded.model, loaded.d, loaded.digits) == (model, moments - 1, digits)
    assert _fmt(stored, 8) == _fmt(residual(loaded), 8)
    write_cache(str(second), loaded)
    assert second.read_text().splitlines()[:6] == first.read_text().splitlines()[:6]
    assert widths_match(load_cache(str(second))[0])


def test_write_cache_keeps_nothing_on_the_record(tmp_path):
    # the header's residual is computed for the file, not cached on the
    # record, and it is the record's residual_norm_of at 8 digits
    rec = heulag.reconstruct(ModelId.SPIN_HALF, 20, heulag.PrecisionContext(40))
    cache = tmp_path / "c.cache"
    write_cache(str(cache), rec)
    assert set(vars(rec)) == {f.name for f in dataclasses.fields(rec)}
    assert _fmt(load_cache(str(cache))[1], 8) == _fmt(residual(rec), 8)


def _mismatch(cache, lines) -> CacheMismatchError:
    """The CacheMismatchError that loading `lines` from `cache` raises."""
    cache.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheMismatchError) as info:
        load_cache(str(cache))
    return info.value


def test_cache_missing_header_field_is_a_mismatch(tmp_path):
    cache = tmp_path / "c.cache"
    lines = _written(cache, 4)
    assert _mismatch(cache, [l for l in lines if not l.startswith("# digits")]).field == "digits"


@pytest.mark.parametrize("field, prefix, bad", [
    ("d", "# d:", "# d: three"),
    ("d", "# d:", "# d: -1"),
    ("digits", "# digits:", "# digits: x"),
    ("coefficients", "0.", "oops"),
    ("residual_norm", "# residual_norm:", "# residual_norm: nan?"),
])
def test_malformed_cache_value_exits_4_naming_the_field(field, prefix, bad, tmp_path):
    # a malformed value raises CacheMismatchError naming its field
    cache = tmp_path / "c.cache"
    lines = _written(cache)
    at = next(i for i, l in enumerate(lines) if l.startswith(prefix))
    error = _mismatch(cache, [*lines[:at], bad, *lines[at + 1:]])
    assert error.field == field
    assert str(error).startswith(f"cache mismatch on '{field}': ")


def test_cache_with_a_missing_coefficient_is_a_mismatch(tmp_path):
    cache = tmp_path / "c.cache"
    error = _mismatch(cache, _written(cache, 4)[:-1])
    assert (error.field, error.expected, error.found) == ("coefficient count", 4, 3)


def test_extrapolate_cache_generator_mismatch(tmp_path):
    # a cache from another generator version is refused on load
    cache = tmp_path / "spin0.cache"
    lines = _written(cache, 20, 40)
    stale = [l.replace("# generator: ", "# generator: stale-") for l in lines]
    assert _mismatch(cache, stale).field == "generator"


def test_cache_that_is_not_utf8_exits_4(tmp_path):
    # a file that is not UTF-8 raises CacheMismatchError, not UnicodeDecodeError
    cache = tmp_path / "x.cache"
    cache.write_bytes(b"\xff\xfe")
    with pytest.raises(CacheMismatchError) as info:
        load_cache(str(cache))
    assert info.value.field == "encoding"
    assert str(info.value) == "cache mismatch on 'encoding': expected 'UTF-8', found 'byte 0xff'"


def test_reconstruct_unwritable_path(tmp_path):
    # OSError, and the temp file is gone: a missing directory fails before
    # the temp file exists, a directory in the way after it is written
    target = tmp_path / "taken"
    target.mkdir()
    for path in (tmp_path / "missing" / "x.cache", target):
        with pytest.raises(OSError):
            _written(path)
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_fewer_digits_than_moments_run_quietly(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["extrapolate", "--moments", "80", "--digits", "60",
                              "--beta", "1,1e7"], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6


def test_force_is_an_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["extrapolate", "--moments", "10", "--force"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# extrapolate.
# ---------------------------------------------------------------------------

def test_extrapolate_in_memory_without_cache(capsys):
    code, out, _ = run(["extrapolate", "--model", "spin0", "--moments", "20",
                        "--digits", "40", "--beta", "0.1", "--format", "json"],
                       capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert set(row) == {"beta", "value", "tail", "delta", "K"}
    # value equals tail + delta as decimal strings recombined
    with mp.workdps(60):
        assert abs(mpf(row["value"]) - (mpf(row["tail"]) + mpf(row["delta"]))) \
            < mpf("1e-38") * max(1, abs(mpf(row["value"])))


def test_truncation_beyond_2d_runs_quietly():
    r = _run_child(["extrapolate", "--moments", "20", "--truncation", "45", "--beta", "1,1e7"])
    assert (r.returncode, r.stderr) == (0, "")


def test_moments_below_one_exits_2_naming_the_moments(capsys):
    code, out, err = run(["extrapolate", "--moments", "0", "--beta", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --moments must be >= 1, got 0\n"


def test_missing_moments_exits_2_naming_the_flag(capsys):
    code, out, err = run(["extrapolate", "--beta", "1"], capsys)
    assert (code, out, err) == (2, "", "error: this command requires --moments\n")


def test_truncation_below_one_exits_2_naming_the_truncation(capsys):
    code, out, err = run(["extrapolate", "--moments", "10", "--truncation", "0",
                          "--beta", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: truncation K must be >= 1, got 0\n"


def test_compare_builds_the_tail_once(monkeypatch, capsys):
    # one T build for the reconstruction, not one per beta
    builds = []
    build = extrapolant._tail_coefficients
    monkeypatch.setattr(extrapolant, "_tail_coefficients",
                        lambda *args: builds.append(args) or build(*args))
    code, out, _ = run(["compare", "--moments", "50", "--beta", "0.1,10,1e7"], capsys)
    assert code == 0 and out.count("\n| ") == 5  # header, rule and three beta rows
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# compare.
# ---------------------------------------------------------------------------

def test_compare_grid_with_agreement(capsys):
    code, out, _ = run(["compare", "--model", "spin0", "--beta", "0.01,0.1",
                        "--digits", "60", "--pade", "49,50", "--delta", "25",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert "pade_49_50" in row and "delta_25" in row and "exact" in row
    # weak field: both methods nail many digits
    assert int(row["pade_49_50_agree"]) >= 18
    assert int(row["delta_25_agree"]) >= 18


def test_compare_markdown_brackets_agreeing_prefix(capsys):
    code, out, _ = run(["compare", "--model", "spin0", "--beta", "0.1",
                        "--digits", "60", "--delta", "25"], capsys)
    assert code == 0
    assert "[" in out and "]" in out


def test_bracket_closes_at_the_exponent():
    # more agreeing digits than the mantissa prints close before the exponent
    assert _bracket("-0.0123e-7", 2) == "[-0.012]3e-7"
    assert _bracket("1.25e+3", 5) == "[1.25]e+3"
    assert _bracket("1.25", 0) == "1.25"


def test_agree_digits_reads_the_exact_difference():
    # |value - exact| 10^n <= |exact| decided on the exact values: a 31-digit
    # log10 of the relative error reads 5 for both
    with mp.workdps(80):
        above, below = (1 + mpf(10) ** -5 * (1 + s * mpf(10) ** -40) for s in (1, -1))
    one = mpf(1)
    assert (_agree_digits(above, one), _agree_digits(below, one)) == (4, 5)
    assert [_agree_digits(mpf(v), mpf(e)) for v, e in ((2, 2), (0, 0), (1, 0), (-3, 1))] \
        == [21, 21, 0, 0]


def test_compare_cell_error_annotated_run_continues(capsys):
    # [0/2] is below the S-fraction staircase (N < M - 1): every pade cell is
    # an annotated DomainError while the other columns and rows still print
    code, out, _ = run(["compare", "--model", "spin0", "--beta", "0.01,0.5,1",
                        "--digits", "60", "--delta", "5", "--pade", "0,2",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + all three rows survive
    header = lines[0].split(",")
    col = header.index("pade_0_2")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[col] == "ERR(DomainError)"
        assert sum("ERR" in c for c in cells) == 1
        for name in ("beta", "delta_5", "exact"):  # the other columns hold numbers
            assert mpf(cells[header.index(name)]) > 0


@pytest.mark.parametrize("pade", ["9", "9,10,11", "9,x"])
def test_pade_that_is_not_two_integers_exits_2(pade, capsys):
    code, out, err = run(["compare", "--pade", pade, "--beta", "1"], capsys)
    assert (code, out, err) == (2, "", f"error: --pade expects N,M integers, got {pade!r}\n")


def test_compare_builds_each_pade_column_once(monkeypatch, capsys):
    qd_rows = []
    qd_row = comparators._fixed_qd_row
    monkeypatch.setattr(comparators, "_fixed_qd_row",
                        lambda a, L, *precs: qd_rows.append(L) or qd_row(a, L, *precs))
    betas = ["0.1", "10", "1e3"]
    code, out, _ = run(["compare", "--model", "spin12", "--beta", ",".join(betas),
                        "--pade", "9,10", "--format", "csv"], capsys)
    assert code == 0 and qd_rows == [0]
    series = heulag.coefficients(ModelId.SPIN_HALF, 20)
    ctx = heulag.PrecisionContext(60)
    col = out.splitlines()[0].split(",").index("pade_9_10")
    assert [line.split(",")[col] for line in out.splitlines()[1:]] == \
        [_fmt(heulag.pade_eval(series, 9, 10, b, ctx)) for b in betas]


def test_compare_empty_beta(capsys):
    code, out, _ = run(["compare", "--model", "spin0", "--beta", "",
                        "--delta", "5", "--format", "csv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1


# ---------------------------------------------------------------------------
# table.
# ---------------------------------------------------------------------------

def test_table_1_partial_sum_grid(capsys):
    code, out, _ = run(["table", "1", "--digits", "60"], capsys)
    assert code == 0
    assert "beta=0.01" in out and "beta=0.2" in out
    assert "| exact |" in out or "exact" in out
    # the divergent tail of the asymptotic series is visible
    assert "33995.123482" in out
    # table 4: the self-dual grid reports its own model at the requested digits
    code, out, _ = run(["table", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["model"], doc["digits"]) == ("sd", 60)
    assert [r["d"] for r in doc["rows"]] == [str(d) for d in range(1, 11)] + ["20", "50", "exact"]


def test_table_5_decomposition_at_the_digit_floor(capsys):
    code, out, _ = run(["table", "5"], capsys)
    assert code == 0
    assert out.startswith("## table model=spin0 digits=100\n")
    assert ("| 1 | -0.1007381259582532908 | 0.114696404380616154062 "
            "| 0.0139582784223628632622 | 0.0139688479484886137166 |") in out.splitlines()


def test_table_rejects_unknown_number(capsys):
    code, _, err = run(["table", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["table", "1", "--model", "sd"],
    ["table", "2", "--moments", "7", "--cache", "/nonexistent/x", "--force"],
    ["exact", "--moments", "3"],
    ["series", "--truncation", "5", "--cache", "x"],
    ["extrapolate", "--moments", "5", "--cache", "x"],
])
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism across processes.
# ---------------------------------------------------------------------------

def test_cross_process_byte_determinism(tmp_path):
    argv = ["compare", "--model", "sd", "--beta", "0.01,1", "--digits", "40",
            "--delta", "10", "--format", "markdown"]
    r1 = _run_child(argv)
    r2 = _run_child(argv)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_golden_check_names_what_differs(monkeypatch, tmp_path, capsys):
    same = {"exit": 0, "stdout": "x", "stderr": "y"}
    monkeypatch.setattr(frozen, "DATA", tmp_path)
    monkeypatch.setattr(sys, "argv", ["golden.py", "--check"])
    golden = frozen.Dataset("golden", lambda: {e: {**same, "exit": int(e != "a")} for e in "abc"})
    golden.write({"a": same, "b": same})
    assert frozen.main(golden) == 1
    assert capsys.readouterr().out == "differs: b / exit\nnot in the file: c\ngolden: differs\n"


@pytest.mark.parametrize("entry", cli_golden.ENTRIES)
def test_cli_output_matches_golden_manifest(entry):
    # stdout, stderr and exit code as recorded in data/cli_golden.json
    assert cli_golden.run(entry) == cli_golden.DATASET.load()[entry]
