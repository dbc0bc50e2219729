import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sigmaperfect.classify as classify
import sigmaperfect.cli as cli
import sigmaperfect.exactint as exactint
import sigmaperfect.primality as primality
import sigmaperfect.sigma as sigma
import sigmaperfect.valuations as valuations
from sigmaperfect.classify import PRUNE_ORDER, ClassificationReport
from sigmaperfect.cli import RunRecord, SearchConfig, main, parse_run_record
from sigmaperfect.exactint import DEFAULT_BIT_CAP, OperandSizeError
from sigmaperfect.sigma import SpecialForm
from sigmaperfect.valuations import LemmaGrid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_m_sigmaperfect_runs_the_cli(capsys):
    # a checkout run without an install has this entry point as well
    proc = subprocess.run(
        [sys.executable, "-m", "sigmaperfect", "sigma", "22", "5"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    code, out, _ = run_cli(capsys, "sigma", "22", "5")
    assert proc.returncode == code == 0
    assert proc.stdout == out and len(out.splitlines()) == 3


def test_sigma_command_frozen_values(capsys):
    code, out, _ = run_cli(capsys, "sigma", "22", "5")
    assert code == 0
    assert "sigma_5(22) = 5314716" in out
    assert "mod 22 = 0" in out
    assert "divides sigma_5(22): yes" in out

    code, out, _ = run_cli(capsys, "sigma", "1", "9")
    assert code == 0 and "sigma_9(1) = 1" in out and "yes" in out

    code, out, _ = run_cli(capsys, "sigma", "86", "7")
    assert code == 0 and "divides sigma_7(86): yes" in out

    code, out, _ = run_cli(capsys, "sigma", "28", "3")
    assert code == 0 and "divides sigma_3(28): no" in out


def test_sigma_command_rejects_bad_input(capsys):
    with pytest.raises(SystemExit):
        main(["sigma", "twelve", "5"])
    code, _, err = run_cli(capsys, "sigma", "0", "5")
    assert code != 0 and "n must be" in err


def test_sigma_command_past_trial_division(capsys):
    n = 10**18 + 3  # prime, so sigma_5(n) = 1 + n**5
    code, out, _ = run_cli(capsys, "sigma", str(n), "5")
    assert code == 0
    assert out == (
        f"sigma_5({n}) = {1 + n**5}\n"
        f"sigma_5({n}) mod {n} = 1\n"
        f"{n} divides sigma_5({n}): no\n"
    )
    # 2**64 + 13 is prime, but nothing proves primes past 64 bits
    code, out, err = run_cli(capsys, "sigma", str(2**64 + 13), "5")
    assert code == 2 and out == "" and "65-bit cofactor" in err


def test_sigma_command_refuses_a_wide_power_before_building_it(capsys):
    # 3**10000000 is refused by the operand cap on q**K itself, at once,
    # not after building it for the geometric sum
    code, out, err = run_cli(capsys, "sigma", "3", "10000000")
    assert code == 2 and out == ""
    assert "2-bit base raised to 10000000 exceeds the 1000000-bit cap" in err


def test_sigma_command_prints_a_value_past_the_int_to_str_limit(capsys):
    # 10**9 + 7 is prime, so sigma_480 of it is 1 + p**480: 4,321 digits,
    # past the interpreter's 4,300-digit int-to-str limit
    p = 10**9 + 7
    code, out, err = run_cli(capsys, "sigma", str(p), "480")
    assert code == 0 and err == ""
    first, *rest = out.splitlines()
    digits = first.removeprefix(f"sigma_480({p}) = ")
    assert len(digits) == 4321 and digits.isdigit()
    # compared digit block by digit block, each under the limit
    value, blocks = 1 + p**480, []
    while value:
        value, block = divmod(value, 10**1000)
        blocks.append(str(block).zfill(1000))
    assert digits == "".join(reversed(blocks)).lstrip("0")
    assert rest == [f"sigma_480({p}) mod {p} = 1", f"{p} divides sigma_480({p}): no"]


def test_sigma_command_refuses_a_wide_value_before_factoring(monkeypatch, capsys):
    # sigma_k(n) is at least n**k, and 6**400000 is 3 bits wide per factor of 6
    monkeypatch.setattr(sigma, "factorize", _refuse("factorize"))
    code, out, err = run_cli(capsys, "sigma", "6", "400000")
    assert (code, out) == (2, "")
    assert err == "operand size cap exceeded: 3-bit base raised to 400000 exceeds the 1000000-bit cap\n"


def test_sigma_command_refuses_once_rho_budget_runs_out(monkeypatch, capsys):
    monkeypatch.setattr(sigma, "_RHO_BUDGET", 64)
    n = (2**32 - 5) * (2**32 - 17)
    with pytest.raises(ValueError, match="64-bit composite cofactor"):
        sigma.factorize(n)
    code, out, err = run_cli(capsys, "sigma", str(n), "5")
    assert code == 2 and out == "" and "within 64 rho iterations" in err


def test_sigma_command_charges_rho_by_cofactor_width(capsys):
    # 1,128 bits: each iteration counts 81, so the budget runs out quickly
    n = (2**521 - 1) * (2**607 - 1)
    code, out, err = run_cli(capsys, "sigma", str(n), "5")
    assert code == 2 and out == ""
    assert "1128-bit composite cofactor" in err and "rho iterations (one at its width counts 81)" in err


def test_search_json_lines_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "8", "--beta-max", "6"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    kinds = [obj["record"] for obj in lines]
    assert kinds[0] == "header" and kinds[-1] == "summary"
    solutions = [obj for obj in lines if obj["record"] == "solution"]
    assert [obj["n"] for obj in solutions] == ["6", "28", "8128"]
    assert all(isinstance(obj["n"], str) for obj in solutions)
    summary = lines[-1]
    assert summary["matches_expected"] is True and summary["mode"] == "theorem"

    record = parse_run_record(out)
    assert [r.form.n() for r in record.reports] == [6, 28, 8128]
    assert record.config.alpha_max == 8 and record.config.k == "5"
    assert type(record.config) is SearchConfig
    assert all(type(r) is ClassificationReport and type(r.form) is SpecialForm
               for r in record.reports)
    # re-render/re-parse is stable
    again = parse_run_record(cli.render_json_lines(record, []))
    assert again == record and type(again) is RunRecord


def test_search_output_is_deterministic_after_header(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "search", "--k", "5", "--alpha-max", "7", "--beta-max", "4"
        )
        runs.append(out.splitlines()[1:])  # timestamps live in the header only
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k, scenario1", [("5", 0), ("7", 20)])
def test_search_worker_count_keeps_output_identical(k, scenario1, capsys):
    # k = 7 also has scenario-1 points: p = k at alpha 3 .. 12 and beta 2, 4
    outs = []
    for workers in ("1", "2"):
        _, out, _ = run_cli(
            capsys,
            # three tasks, so that two workers fork a pool
            "search", "--k", k, "--alpha-max", "12", "--beta-max", "4",
            "--workers", workers,
        )
        outs.append(out.splitlines()[1:])
    assert outs[0] == outs[1]
    summary = json.loads(outs[0][-1])
    assert int(summary["pruned_points"]) > 0
    assert int(summary["scenario1_points"]) == scenario1


def test_search_k3_includes_496_excludes_28(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "3", "--alpha-max", "9", "--beta-max", "4"
    )
    assert code == 0
    ns = [json.loads(l)["n"] for l in out.splitlines() if json.loads(l)["record"] == "solution"]
    assert "496" in ns and "28" not in ns


def test_search_beta2_grid_k7(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "7", "--alpha-max", "6", "--beta-max", "2"
    )
    assert code == 0
    ns = [json.loads(l)["n"] for l in out.splitlines() if json.loads(l)["record"] == "solution"]
    assert ns == ["6", "28", "496"]


def test_search_all_mersenne_k(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "all-mersenne-upto-7", "--alpha-max", "6", "--beta-max", "4"
    )
    assert code == 0
    summaries = [json.loads(l) for l in out.splitlines() if json.loads(l)["record"] == "summary"]
    assert [s["k"] for s in summaries] == ["3", "5", "7"]
    assert all(s["matches_expected"] for s in summaries)
    solutions = [json.loads(l) for l in out.splitlines() if json.loads(l)["record"] == "solution"]
    ns = [int(s["n"]) for s in solutions]
    assert ns == sorted(ns)  # merged multi-k reports stay sorted by n
    assert len({(s["n"], s["k"]) for s in solutions}) == len(solutions)


def test_search_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--k", "5", "--alpha-max", "8", "--beta-max", "2", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,alpha,p,beta,k,")
    assert rows[1].split(",")[0] == "6"
    assert len(rows) == 1 + 3  # header + {6, 28, 8128}


def test_search_human_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--k", "5", "--alpha-max", "6", "--beta-max", "2", "--format", "human",
    )
    assert code == 0
    assert "divides" in out.splitlines()[0]
    assert "MATCH" in out


def test_search_out_file(tmp_path, capsys):
    target = tmp_path / "run.jsonl"
    target.write_text("a longer stale record that the new one must fully replace\n" * 50)
    code, out, _ = run_cli(
        capsys,
        "search", "--k", "5", "--alpha-max", "6", "--beta-max", "2", "--out", str(target),
    )
    assert code == 0 and out == ""
    record = parse_run_record(target.read_text())
    assert [r.form.n() for r in record.reports] == [6, 28]


def test_search_reports_internal_discrepancy(monkeypatch, capsys):
    monkeypatch.setattr(classify, "expected_even_perfect", lambda k, amax: [6, 28, 999])
    code, _, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "6", "--beta-max", "2"
    )
    assert code == 2
    assert "discrepancy" in err and "implementation bug" in err


def test_search_reports_conjecture_finding(monkeypatch, capsys):
    monkeypatch.setattr(classify, "expected_even_perfect", lambda k, amax: [6, 28, 999])
    code, out, err = run_cli(
        capsys, "search", "--k", "7", "--alpha-max", "6", "--beta-max", "4"
    )
    assert code == 2
    assert "discrepancy at k=7 (conjecture finding)" in err
    summary = json.loads(out.splitlines()[-1])
    assert summary["mode"] == "conjecture" and summary["matches_expected"] is False


def test_search_exits_nonzero_on_route_disagreement(monkeypatch, capsys):
    # a lying divisibility route must force a nonzero exit, whatever the solutions
    monkeypatch.setattr(
        classify,
        "_direct_block",
        lambda k, blocks: [False] * sum(len(b.alphas) * len(b.ps) for b in blocks),
    )
    code, _, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "6", "--beta-max", "2"
    )
    assert code == 2 and "cross-check failure" in err


def test_search_exits_nonzero_on_odd_beta_first_condition(odd_beta_first_condition_row, capsys):
    code, _, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "4", "--beta-max", "3"
    )
    assert code == 2 and "cross-check failure" in err and "odd beta" in err


def test_search_exits_nonzero_on_pruned_solution(monkeypatch, capsys):
    monkeypatch.setattr(classify, "_verdict_row", lambda *args: "parity")
    code, _, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "4", "--beta-max", "2"
    )
    assert code == 2 and "cross-check failure" in err and "contradicts" in err


def test_pooled_search_exits_nonzero_on_pruned_solution(monkeypatch, capsys):
    # three tasks on two workers: the pruners run after the pool, in the
    # calling process, and name the first solution they contradict
    monkeypatch.setattr(classify, "_verdict_row", lambda *args: "parity")
    code, out, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "12", "--beta-max", "4", "--workers", "2"
    )
    assert code == 2 and "cross-check failure" in err and "contradicts" in err
    assert "(alpha, p, beta, k) = (2, 3, 2, 5)" in err


def test_search_rejects_empty_exponent_selection(tmp_path, capsys):
    code, out, err = run_cli(capsys, "search", "--k", "all-mersenne-upto-2")
    assert code == 2 and out == "" and "error:" in err
    config = tmp_path / "empty.conf"
    config.write_text("k=all-mersenne-upto-2\n")
    code, out, err = run_cli(capsys, "search", "--config", str(config))
    assert code == 2 and out == "" and "error:" in err


def test_search_refuses_oversized_grid_before_sieving(monkeypatch, capsys):
    def no_sieve(n):
        raise AssertionError("the p-bound primes must not be sieved")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    code, out, err = run_cli(capsys, "search", "--k", "5", "--alpha-max", "30")
    assert code == 2 and out == ""
    assert "error:" in err and f"limit of {classify.MAX_SCAN_ALPHA}" in err
    code, _, err = run_cli(capsys, "verify-theorem", "--k", "5", "--alpha-max", "25")
    assert code == 2 and "error:" in err


def test_search_bit_cap_refused_before_scanning(monkeypatch, capsys):
    # the first point past the cap in flag order is (alpha, p, beta) =
    # (15, 32771, 16), where (p**5)**16 is 16 * 76 = 1216 bits wide; the
    # grid's widest, at p = 49139, is 16 * 78 = 1248
    monkeypatch.setattr(classify, "_scan_task", _refuse_scan)
    code, out, err = run_cli(
        capsys, "search", "--k", "5", "--alpha-max", "15", "--beta-max", "16", "--bit-cap", "1200"
    )
    assert code == 2 and out == ""
    assert err == "operand size cap exceeded: 76-bit base raised to 16 exceeds the 1200-bit cap\n"


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} must not be called")

    return refuse


def test_search_refuses_large_mersenne_bound_before_lucas_lehmer(monkeypatch, capsys):
    monkeypatch.setattr(primality, "lucas_lehmer", _refuse("lucas_lehmer"))
    bound = primality.MAX_MERSENNE_BOUND + 1
    code, out, err = run_cli(capsys, "search", "--k", f"all-mersenne-upto-{bound}")
    assert code == 2 and out == "" and "error:" in err
    assert f"K <= {primality.MAX_MERSENNE_BOUND}" in err
    code, _, err = run_cli(capsys, "search", "--k", "all-mersenne-upto-10000")
    assert code == 2 and "error:" in err
    # mersenne and perfect share the cap, and perfect calls sigma_k only after it
    monkeypatch.setattr(cli, "sigma_k", _refuse("sigma_k"))
    for command in ("mersenne", "perfect"):
        code, out, err = run_cli(capsys, command, "--upto", str(bound))
        assert code == 2 and out == "" and f"K <= {primality.MAX_MERSENNE_BOUND}" in err


def test_search_config_selects_mersenne_exponents_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = cli.mersenne_exponents_upto

    def counting(bound):
        calls.append(bound)
        return real(bound)

    monkeypatch.setattr(cli, "mersenne_exponents_upto", counting)
    config = tmp_path / "search.conf"
    config.write_text("k=all-mersenne-upto-7\nalpha_max=5\nbeta_max=2\n")
    code, out, _ = run_cli(capsys, "search", "--config", str(config), "--alpha-max", "6")
    assert code == 0
    summaries = [json.loads(l) for l in out.splitlines() if json.loads(l)["record"] == "summary"]
    assert [s["k"] for s in summaries] == ["3", "5", "7"]
    assert calls == [7]
    # built directly, and once more for a copy with a field replaced
    config = SearchConfig(k="all-mersenne-upto-13")
    assert config.exponents() == config.exponents() == [3, 5, 7, 13]
    assert calls == [7, 13]
    assert config._replace(workers=2).exponents() == [3, 5, 7, 13] and calls == [7, 13, 13]
    with pytest.raises(ValueError, match="workers must be >= 1"):
        config._replace(workers=0)


def _refuse_scan(*args, **kwargs):
    raise AssertionError("the grid must not be scanned")


def test_search_unwritable_out_fails_before_scanning(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(classify, "scan_special_forms", _refuse_scan)
    target = tmp_path / "missing" / "run.jsonl"
    code, out, err = run_cli(capsys, "search", "--k", "5", "--out", str(target))
    assert code == 2 and out == "" and "error:" in err


def test_search_failure_keeps_existing_out_file(tmp_path, monkeypatch, capsys):
    def failing_scan(*args, **kwargs):
        raise classify.CrossCheckError("injected")

    monkeypatch.setattr(classify, "scan_special_forms", failing_scan)
    target = tmp_path / "run.jsonl"
    target.write_text("previous record\n")
    code, _, err = run_cli(capsys, "search", "--k", "5", "--out", str(target))
    assert code == 2 and "cross-check failure" in err
    assert target.read_text() == "previous record\n"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "search.conf"
    config.write_text("k=5\nalpha_max=6\nbeta_max=2\nformat=csv\n# comment line\n")
    code, out, _ = run_cli(
        capsys, "search", "--config", str(config), "--alpha-max", "8"
    )
    # file sets csv; flag overrides alpha_max to 8
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,") and len(rows) == 1 + 3


def test_config_env_var(tmp_path, monkeypatch, capsys):
    config = tmp_path / "env.conf"
    config.write_text("k=5\nalpha_max=6\nbeta_max=2\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(config))
    code, out, _ = run_cli(capsys, "search")
    assert code == 0
    solutions = [json.loads(l) for l in out.splitlines() if json.loads(l)["record"] == "solution"]
    assert [s["n"] for s in solutions] == ["6", "28"]


def test_search_config_round_trip(tmp_path, capsys):
    config = SearchConfig(k="all-mersenne-upto-13", alpha_max=9, beta_max=4, workers=2)
    record = RunRecord(config=config, reports=[], tool_version="v", started="s", finished="f")
    assert parse_run_record(cli.render_json_lines(record, [])).config == config
    assert config.exponents() == [3, 5, 7, 13]
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense_key=1\n")
    code, out, err = run_cli(capsys, "search", "--config", str(bad))
    assert code == 2 and out == "" and "unknown config keys" in err
    with pytest.raises(ValueError):
        SearchConfig(format="yaml")
    for bad_grid in ({"alpha_max": 1}, {"beta_max": 1}):
        with pytest.raises(ValueError, match="alpha_max and beta_max must be >= 2"):
            SearchConfig(**bad_grid)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        SearchConfig(workers=0)


def test_record_reprs_match_the_field_listing():
    form = SpecialForm(3, 7, 2, 5)
    assert repr(form) == "SpecialForm(alpha=3, p=7, beta=2, k=5)"
    assert repr(ClassificationReport(form, False, False, False, "parity")) == (
        "ClassificationReport(form=SpecialForm(alpha=3, p=7, beta=2, k=5), divides=False, "
        "perfect=False, excluded_perfect=False, pruned_by='parity')"
    )
    assert repr(SearchConfig()) == (
        "SearchConfig(k='5', alpha_max=13, beta_max=16, workers=1, bit_cap=1000000, "
        "output_path='', format='json-lines')"
    )
    assert repr(SearchConfig(k="all-mersenne-upto-13", workers=2, format="csv")) == (
        "SearchConfig(k='all-mersenne-upto-13', alpha_max=13, beta_max=16, workers=2, "
        "bit_cap=1000000, output_path='', format='csv')"
    )


def test_record_fields_cannot_be_assigned():
    form = SpecialForm(3, 7, 2, 5)
    stats = classify.GridStats(47, 10, 0)
    records = (
        form,
        LemmaGrid(),
        classify.DivisibilityConditions(True, False),
        ClassificationReport(form, True, True, False),
        stats,
        classify.SearchOutcome(5, [], stats, [6, 28], "theorem", False),
        SearchConfig(),
        RunRecord(SearchConfig(), [], "v", "s", "f"),
    )
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


search_configs = st.builds(
    SearchConfig,
    k=st.one_of(
        st.integers(min_value=-10, max_value=10**6).map(str),
        st.integers(min_value=3, max_value=40).map(lambda n: f"all-mersenne-upto-{n}"),
    ),
    alpha_max=st.integers(min_value=2, max_value=10**6),
    beta_max=st.integers(min_value=2, max_value=10**6),
    workers=st.integers(min_value=1, max_value=64),
    bit_cap=st.integers(min_value=-(10**12), max_value=10**12),
    output_path=st.text(),
    format=st.sampled_from(cli.FORMATS),
)

reports = st.builds(
    ClassificationReport,
    form=st.builds(
        SpecialForm,
        alpha=st.integers(min_value=2, max_value=200),
        p=st.sampled_from([3, 5, 7, 31, 127, 8191]),
        beta=st.integers(min_value=2, max_value=200),
        k=st.sampled_from([2, 3, 5, 7, 13]),
    ),
    divides=st.booleans(),
    perfect=st.booleans(),
    excluded_perfect=st.booleans(),
    pruned_by=st.sampled_from([None, *PRUNE_ORDER]),
)


@given(search_configs, st.lists(reports, max_size=5), st.text(), st.text(), st.text())
def test_run_record_round_trip(config, report_list, version, started, finished):
    record = RunRecord(
        config=config, reports=report_list, tool_version=version, started=started,
        finished=finished,
    )
    assert parse_run_record(cli.render_json_lines(record, [])) == record


def test_verify_theorem_command(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--k", "5", "--alpha-max", "8")
    assert code == 0 and "{6, 28, 8128}" in out
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--k", "5", "--alpha-max", "8", "--beta-max", "6"
    )
    assert code == 0 and "beta up to 6" in out
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--k", "3", "--alpha-max", "8", "--beta-max", "4"
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "verify-theorem", "--k", "7", "--alpha-max", "6", "--beta-max", "4"
    )
    assert code != 0 and "only proved" in err


def test_search_and_verify_theorem_refuse_zero_workers_before_sieving(monkeypatch, capsys):
    def no_sieve(n):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    for command in ("search", "verify-theorem"):
        code, out, err = run_cli(
            capsys, command, "--k", "5", "--alpha-max", "4", "--workers", "0"
        )
        assert code == 2 and out == "" and "workers must be >= 1" in err, command


def test_verify_theorem_trips_on_solution_set_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(classify, "expected_even_perfect", lambda k, amax: [6, 28, 999])
    code, out, err = run_cli(capsys, "verify-theorem", "--k", "5", "--alpha-max", "6")
    assert code == 2 and out == ""
    assert "cross-check failure" in err and "differs from predicted" in err


def test_verify_theorem_trips_on_non_perfect_solution(monkeypatch, capsys):
    monkeypatch.setattr(classify, "is_even_perfect", lambda n: False)
    code, out, err = run_cli(capsys, "verify-theorem", "--k", "5", "--alpha-max", "6")
    assert code == 2 and out == ""
    assert "cross-check failure" in err and "non-perfect or excluded" in err


def test_check_lemma_command(capsys):
    code, out, _ = run_cli(capsys, "check-lemma", "vs1", "--k", "3,5,7")
    assert code == 0
    assert "vs1: 3/3 pass" in out

    code, out, _ = run_cli(
        capsys, "check-lemma", "f", "--k", "3", "--alpha-max", "5", "--beta-max", "4"
    )
    assert code == 0 and "pass" in out

    code, out, _ = run_cli(capsys, "check-lemma", "v10", "--alpha-max", "6")
    assert code == 0

    code, out, _ = run_cli(
        capsys, "check-lemma", "trichotomy", "--k", "5", "--p-max", "40", "--v-max", "2"
    )
    assert code == 0 and "informational" in out

    with pytest.raises(SystemExit):  # argparse usage error
        main(["check-lemma", "unknown-tag"])

    # one flag per LemmaGrid field, defaulting to the field's default
    args = cli.build_parser().parse_args(["check-lemma", "vs1"])
    assert LemmaGrid(**{name: getattr(args, name) for name in LemmaGrid._fields}) == LemmaGrid()
    args = cli.build_parser().parse_args(["check-lemma", "vs1", "--k", "3,13", "--p1-max", "7"])
    assert args.k_values == (3, 13) and args.p1_max == 7


def test_mersenne_command(capsys):
    code, out, _ = run_cli(capsys, "mersenne", "--upto", "15")
    assert code == 0
    ks = [line.split()[0] for line in out.strip().splitlines()]
    assert ks == ["2", "3", "5", "7", "13"]
    assert "8191" in out


def test_perfect_command(capsys):
    code, out, _ = run_cli(capsys, "perfect", "--upto", "13")
    assert code == 0
    assert "n=33550336" in out and "sigma(n)=2n: yes" in out
    code, out, _ = run_cli(capsys, "perfect", "--exponent", "7")
    assert code == 0 and "n=8128" in out
    code, _, err = run_cli(capsys, "perfect", "--exponent", "11")
    assert code != 0 and "not prime" in err
    code, out, _ = run_cli(capsys, "perfect", "--upto", "60")
    assert code == 0 and out.count("sigma(n)=2n: yes") == 8 and "q=31" in out
    # 2**61 - 1 is past 2**60 and still proved prime
    code, out, _ = run_cli(capsys, "perfect", "--upto", "61")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 9 and all(line.endswith("sigma(n)=2n: yes") for line in lines)
    assert lines[-1].startswith("q=61  n=")


def test_perfect_refuses_exponent_past_trial_division(monkeypatch, capsys):
    # both flags share the Mersenne bound, checked before Lucas-Lehmer and sigma_k
    monkeypatch.setattr(cli, "sigma_k", _refuse("sigma_k"))
    monkeypatch.setattr(primality, "lucas_lehmer", _refuse("lucas_lehmer"))
    bound = primality.MAX_MERSENNE_BOUND
    code, out, err = run_cli(capsys, "perfect", "--upto", str(bound + 1))
    assert code == 2 and out == "" and f"K <= {bound}" in err
    for q in (bound + 1, 100003):
        code, out, err = run_cli(capsys, "perfect", "--exponent", str(q))
        assert code == 2 and out == ""
        assert f"Mersenne exponent {q} is beyond the limit {bound}" in err


def test_perfect_refuses_exponent_zero_before_sigma(monkeypatch, capsys):
    # --exponent 0 names one exponent; it must not fall back to the --upto list
    monkeypatch.setattr(cli, "sigma_k", _refuse("sigma_k"))
    code, out, err = run_cli(capsys, "perfect", "--exponent", "0")
    assert code == 2 and out == "" and "2**0 - 1 is not prime" in err


def test_check_lemma_refuses_oversized_grid_before_sieving(monkeypatch, capsys):
    monkeypatch.setattr(classify, "primes_upto", _refuse("primes_upto"))
    alpha = str(classify.MAX_SCAN_ALPHA + 1)
    for tag in ("v10", "f", "vs1"):
        code, out, err = run_cli(capsys, "check-lemma", tag, "--alpha-max", alpha)
        assert code == 2 and out == ""
        assert f"limit of {classify.MAX_SCAN_ALPHA}" in err
    p_max = str((3 << classify.MAX_SCAN_ALPHA) + 1)
    for tag in ("tv", "tv2", "u1", "v3", "trichotomy"):
        code, out, err = run_cli(capsys, "check-lemma", tag, "--p-max", p_max)
        assert code == 2 and out == ""
        assert f"limit of {3 << classify.MAX_SCAN_ALPHA}" in err


def test_check_lemma_refuses_a_wide_v_max_before_any_maker_runs(monkeypatch, capsys):
    # every maker builds per-v labels (trichotomy also each 2**v) before the
    # operand cap is checked: at --v-max 20000 trichotomy took over a second
    # and 71 MiB before it failed on an int-to-str conversion
    for tag, (_, proved, kind) in classify._LEMMAS.items():
        monkeypatch.setitem(classify._LEMMAS, tag, (_refuse(f"the {tag} maker"), proved, kind))
    limit = classify.MAX_SCAN_BETA
    for tag in classify.LEMMA_TAGS:
        for v_max in (limit + 1, 20000):
            code, out, err = run_cli(capsys, "check-lemma", tag, "--v-max", str(v_max))
            assert (code, out) == (2, ""), tag
            assert err == (
                f"error: v_max={v_max} exceeds the lemma grid's limit of {limit}: each v doubles "
                "its rows' exponents, and the grid's per-v labels and powers of 2 are made "
                "before the operand cap can refuse a row\n"
            )


def test_sieve_refusals_name_the_largest_number_covered(monkeypatch, capsys):
    monkeypatch.setattr(classify, "primes_upto", _refuse("primes_upto"))
    limit = classify.MAX_SCAN_ALPHA
    code, _, err = run_cli(capsys, "search", "--k", "5", "--alpha-max", str(limit + 1))
    assert code == 2
    assert err == (
        f"error: alpha_max={limit + 1} exceeds the exhaustive scan's limit of {limit}: "
        f"its p-bound sieve would cover the numbers up to {3 * (1 << limit) - 2}\n"
    )
    n = (3 << limit) + 1
    code, _, err = run_cli(capsys, "check-lemma", "tv", "--p-max", str(n))
    assert code == 2
    assert err == (
        f"error: p_max={n} exceeds the lemma grid's limit of {n - 1}: "
        f"its sieve would cover the numbers up to {n - 1}\n"
    )
    with pytest.raises(ValueError) as exc:
        classify.equivalence_scan(n)
    assert str(exc.value) == (
        f"n_limit={n} exceeds the equivalence scan's limit of {n - 1}: "
        f"its sieve would cover the numbers up to {n >> 1}"
    )


def test_beta_bounds_refused_before_scanning(monkeypatch, capsys):
    at_limit = str(classify.MAX_SCAN_BETA)
    code, _, _ = run_cli(capsys, "check-lemma", "f", "--k", "3", "--alpha-max", "2",
                         "--beta-max", at_limit)
    assert code == 0
    code, _, _ = run_cli(capsys, "check-lemma", "appr", "--k", "3", "--u-max", "0",
                         "--alpha1-max", at_limit)
    assert code == 0
    for name in ("primes_upto", "_scan_task", "check_lemma_f", "_exact_flags", "check_appr"):
        monkeypatch.setattr(classify, name, _refuse(name))
    past_limit = str(classify.MAX_SCAN_BETA + 1)
    for argv in (
        ("search", "--k", "5", "--alpha-max", "2", "--beta-max", "100000"),
        ("verify-theorem", "--k", "5", "--beta-max", past_limit),
        ("check-lemma", "f", "--k", "3", "--beta-max", "100000"),
        ("check-lemma", "sl3", "--beta1-max", past_limit),
        ("check-lemma", "sl3", "--lambda-max", past_limit),
        ("check-lemma", "sl3", "--p1-max", past_limit),
        ("check-lemma", "tv", "--beta1-max", past_limit),
        ("check-lemma", "appr", "--u-max", past_limit),
        ("check-lemma", "appr", "--k", "3", "--u-max", "0", "--alpha1-max", "1000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"limit of {classify.MAX_SCAN_BETA}" in err, argv


def test_scans_refuse_too_many_workers_before_forking(monkeypatch, capsys):
    monkeypatch.setattr(classify, "primes_upto", _refuse("primes_upto"))
    monkeypatch.setattr(multiprocessing, "get_context", _refuse("get_context"))
    limit = classify.MAX_WORKERS
    past_limit = str(limit + 1)
    for command in ("search", "verify-theorem"):
        code, out, err = run_cli(
            capsys, command, "--k", "5", "--alpha-max", "4", "--workers", past_limit
        )
        assert code == 2 and out == "", command
        assert f"workers={past_limit} exceeds the exhaustive scan's limit of {limit}" in err
    with pytest.raises(ValueError, match=f"workers={past_limit} exceeds the equivalence scan's"):
        classify.equivalence_scan(1000, workers=limit + 1)


def test_check_lemma_appr_skips_alpha1_sharing_a_factor_with_2k_minus_1(capsys):
    # 2**9 - 1 = 7 * 73: alpha1 = 7 is not coprime to it, though 511 does not divide it
    code, out, err = run_cli(capsys, "check-lemma", "appr", "--k", "9", "--alpha1-max", "8",
                             "--u-max", "0")
    labels = [line.split(":")[0] for line in out.splitlines()[:-1]]
    assert code == 0 and err == ""
    assert labels == [f"appr  k=9 u=0 alpha1={a}" for a in (1, 2, 3, 4, 5, 6, 8)]
    assert out.endswith("appr: 7/7 pass\n")
    # at u = 1 the tower exponent 511**2 * 9 passes the default operand cap
    code, out, err = run_cli(capsys, "check-lemma", "appr", "--k", "9", "--alpha1-max", "8")
    assert code == 2 and out == "" and err.startswith("operand size cap exceeded")


def _pow_under_the_cap(base, exp, mod):
    # the modular power may run on any operand the cap admits, never on one
    # it refuses
    if exp * base.bit_length() > DEFAULT_BIT_CAP:
        raise AssertionError(f"pow reached a refused operand: {base}**{exp}")
    return pow(base, exp, mod)


def test_check_lemma_oracles_refuse_past_operand_cap_before_the_power(monkeypatch, capsys):
    monkeypatch.setattr(valuations, "pow", _pow_under_the_cap, raising=False)
    for argv, refused in (
        (("appr", "--k", "13"), "2-bit base raised to 872202253"),
        (("tv", "--k", "13", "--p-max", "200", "--v-max", "12", "--beta1-max", "9"),
         "3-bit base raised to 372736"),
        (("cando", "--k", "13", "--v-max", "16"), "13-bit base raised to 93184"),
    ):
        code, out, err = run_cli(capsys, "check-lemma", *argv)
        assert code == 2 and out == "", argv
        assert err == f"operand size cap exceeded: {refused} exceeds the 1000000-bit cap\n"


def _block_rows(e, c, v_max, beta1_max):
    # (claimed exponent of 2, exponent) of each row of an _exact_flags block
    return [(e + v, (c << v) * b) for v in range(1, v_max + 1) for b in range(1, beta1_max + 1, 2)]


def test_check_lemma_fails_on_a_failing_proved_row(monkeypatch, capsys):
    exact_flags = classify._exact_flags

    def lying(e, base, c, v_max, beta1_max):
        # the tv row p=13 k=3 v=2 beta1=1 claims 2**4 || 13**12 - 1
        flags = exact_flags(e, base, c, v_max, beta1_max)
        rows = _block_rows(e, c, v_max, beta1_max)
        return [ok and (base, *row) != (13, 4, 12) for row, ok in zip(rows, flags)]

    monkeypatch.setattr(classify, "_exact_flags", lying)
    grid = ("--k", "3", "--p-max", "40", "--v-max", "2", "--beta1-max", "3")
    code, out, _ = run_cli(capsys, "check-lemma", "tv", *grid)
    lines = out.splitlines()
    assert code == 2 and len(lines) == 21  # p in 5, 13, 17, 29, 37; v in 1, 2; beta1 in 1, 3
    assert [line for line in lines if "FAIL" in line] == ["tv  p=13 k=3 v=2 beta1=1: FAIL"]
    assert lines[-1] == "tv: 19/20 pass"
    # an informational tag reports a bound that fails, and still exits 0
    code, out, _ = run_cli(capsys, "check-lemma", "u1", "--k", "5", "--p-max", "40", "--v-max", "3")
    assert code == 0 and "u1  p=5 k=5 v=3: fails" in out
    assert out.endswith("u1: 15 informational row(s)\n")


@pytest.mark.parametrize("argv, row, failed, summary", [
    # (7, 4, 18): 2**4 || 7**18 - 1 at k=3, beta=6
    (("cando", "--k", "3", "--v-max", "2", "--beta1-max", "3"), (7, 4, 18),
     "cando  k=3 beta=6: FAIL", "cando: 3/4 pass"),
    # (11, 4, 12): 2**4 || 11**12 - 1 at p=11, k=3, v=2, beta1=1; p in 3, 7, 11
    (("tv2", "--k", "3", "--p-max", "12", "--v-max", "2", "--beta1-max", "3"), (11, 4, 12),
     "tv2  p=11 k=3 v=2 beta1=1: FAIL", "tv2: 11/12 pass"),
    # (11, 3, 6): 2**3 || 11**6 - 1 at lam=2, p1=3, v=1, beta1=3
    (("sl3", "--lambda-max", "2", "--p1-max", "3", "--v-max", "2", "--beta1-max", "3"),
     (11, 3, 6), "sl3  lam=2 p1=3 v=1 beta1=3: FAIL", "sl3: 7/8 pass"),
])
def test_check_lemma_fails_on_a_lying_block_kernel(argv, row, failed, summary, monkeypatch,
                                                  capsys):
    # cando, tv2 and sl3 decide every row through classify._exact_flags, as tv does
    exact_flags = classify._exact_flags

    def lying(e, base, c, v_max, beta1_max):
        flags = exact_flags(e, base, c, v_max, beta1_max)
        rows = _block_rows(e, c, v_max, beta1_max)
        return [ok and (base, *claim) != row for claim, ok in zip(rows, flags)]

    monkeypatch.setattr(classify, "_exact_flags", lying)
    code, out, err = run_cli(capsys, "check-lemma", *argv)
    lines = out.splitlines()
    assert code == 2 and err == ""
    assert [line for line in lines if "FAIL" in line] == [failed]
    assert lines[-1] == summary


@pytest.mark.parametrize("tag, refused", [
    ("tv", "3-bit base raised to 66"),  # p=5 v=1 beta1=11, not v=2 beta1=11 (132)
    ("tv2", "2-bit base raised to 108"),  # p=3 v=2 beta1=9, not v=2 beta1=11 (132)
    ("cando", "3-bit base raised to 66"),  # beta=22, not beta=44 (132)
])
def test_check_lemma_refuses_at_the_first_refused_row_not_the_largest(tag, refused, capsys):
    # a block's exponents are not monotone in row order: 22k at v=1,
    # beta1=11 comes before 4k at v=2, beta1=1
    code, out, err = run_cli(capsys, "check-lemma", tag, "--k", "3", "--p-max", "6",
                             "--v-max", "2", "--beta1-max", "11", "--bit-cap", "170")
    assert code == 2 and out == ""
    assert err == f"operand size cap exceeded: {refused} exceeds the 170-bit cap\n"


def test_check_lemma_takes_one_pow_per_block(monkeypatch, capsys):
    # each (p, k) block of tv and tv2, k block of cando and (lam, p1) block
    # of sl3 steps its residues from one power
    calls = []

    def counting(base, exp, mod):
        calls.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(valuations, "pow", counting, raising=False)
    grid = ("--k", "3,5", "--p-max", "40", "--v-max", "4", "--beta1-max", "7",
            "--lambda-max", "3", "--p1-max", "5")
    for tag, blocks in (("tv", 5 * 2), ("tv2", 6 * 2), ("cando", 2), ("sl3", 2 * 3)):
        calls.clear()
        code, out, _ = run_cli(capsys, "check-lemma", tag, *grid)
        rows = 4 * 4 * blocks
        assert code == 0 and out.endswith(f"{tag}: {rows}/{rows} pass\n"), tag
        assert len(calls) <= 2 * blocks, (tag, len(calls))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("f", "--k", "4"), "k must be a prime > 2 with 2**k - 1 prime, got 4"),
        (("tv", "--p-max", "2"), "the tv grid has no rows"),
        (("cando", "--v-max", "0"), "the cando grid has no rows"),
        (("sl3", "--lambda-max", "1"), "the sl3 grid has no rows"),
    ],
)
def test_check_lemma_refuses_a_grid_without_rows(argv, message, capsys):
    # a proved tag never reports an empty grid as informational
    code, out, err = run_cli(capsys, "check-lemma", *argv)
    assert code == 2 and out == "" and message in err


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    first = run_cli(capsys, "sigma", "123456789", "5")
    second = run_cli(capsys, "sigma", "123456789", "5")
    assert first == second and first[0] == 0 and "sigma_5(123456789) = " in first[1]
    assert cli.build_parser.cache_info().misses == 1


def test_check_lemma_v3_refuses_past_operand_cap(capsys):
    # bound_v3(3, 3, 19) would raise 3 to 2**19 - 7, past the 1M-bit cap
    code, out, err = run_cli(
        capsys, "check-lemma", "v3", "--k", "3", "--p-max", "4", "--v-max", "22"
    )
    assert code == 2 and out == "" and "operand size cap exceeded" in err


@pytest.mark.parametrize("argv, expected", [
    # at the 10-bit cap, (2**13 - 1)**26 is refused, as in check-lemma cando --k 13
    (("vs1", "--k", "13", "--bit-cap", "10"),
     (2, "", "operand size cap exceeded: 13-bit base raised to 26 exceeds the 10-bit cap\n")),
    # u1's first row, p=5 k=5 v=1, builds (2**5)**2
    (("u1", "--k", "5", "--p-max", "40", "--v-max", "3", "--bit-cap", "10"),
     (2, "", "operand size cap exceeded: 6-bit base raised to 2 exceeds the 10-bit cap\n")),
    # 3**(2**20 - 7) passes a cap wider than the default one; the bound
    # holds while 2**v - 7 < 0 and fails from v = 4 on
    (("v3", "--k", "3", "--p-max", "4", "--v-max", "20", "--bit-cap", "3000000"),
     (0, "".join(f"v3  p=3 k=3 v={v}: {'holds' if v < 4 else 'fails'}\n" for v in range(1, 21))
      + "v3: 20 informational row(s)\n", "")),
])
def test_check_lemma_vs1_u1_and_v3_honour_the_bit_cap(argv, expected, capsys):
    assert run_cli(capsys, "check-lemma", *argv) == expected


@pytest.mark.parametrize("kernel, argv, refused", [
    # in each grid below a first block passes and a later one is refused
    ("_exact_flags", ("vs1", "--k", "3,13", "--bit-cap", "30"),
     "13-bit base raised to 26 exceeds the 30-bit cap"),
    ("_exact_flags", ("cando", "--k", "3,13", "--v-max", "1", "--beta1-max", "1", "--bit-cap", "100"),
     "13-bit base raised to 26 exceeds the 100-bit cap"),
    # appr and appr2 decided k = 3 whole before refusing k = 13 and 61
    ("check_appr", ("appr", "--k", "3,13"),
     "2-bit base raised to 872202253 exceeds the 1000000-bit cap"),
    ("check_appr2_bound", ("appr2", "--k", "3,61"),
     "2-bit base raised to a 67-bit exponent exceeds the 1000000-bit cap"),
    ("_exact_flags",
     ("tv2", "--k", "3,13", "--p-max", "4", "--v-max", "1", "--beta1-max", "1", "--bit-cap", "40"),
     "2-bit base raised to 26 exceeds the 40-bit cap"),
    ("_exact_flags",
     ("sl3", "--lambda-max", "2", "--p1-max", "5", "--v-max", "1", "--beta1-max", "1",
      "--bit-cap", "8"),
     "5-bit base raised to 2 exceeds the 8-bit cap"),
    ("_bound_row", ("u1", "--k", "3,13", "--p-max", "6", "--v-max", "1", "--bit-cap", "20"),
     "14-bit base raised to 2 exceeds the 20-bit cap"),
    ("_bound_row", ("v3", "--k", "3,13", "--p-max", "4", "--v-max", "1", "--bit-cap", "20"),
     "2-bit base raised to 25 exceeds the 20-bit cap"),
    ("_scenarios", ("trichotomy", "--k", "3,13", "--p-max", "4", "--v-max", "1", "--bit-cap", "40"),
     "4-bit base raised to 13 exceeds the 40-bit cap"),
    # a stream deciding before it guards would print p=5 to p=2377 first
    ("_exact_flags",
     ("tv", "--k", "3,5", "--p-max", "3000", "--v-max", "6", "--beta1-max", "11",
      "--bit-cap", "40000"),
     "12-bit base raised to 3520 exceeds the 40000-bit cap"),
    # the cap refuses a row of k=13's first block before the bad k=4 is reached
    ("_exact_flags",
     ("tv", "--k", "13,4", "--p-max", "40", "--v-max", "12", "--beta1-max", "9",
      "--bit-cap", "1000"),
     "3-bit base raised to 364 exceeds the 1000-bit cap"),
    # k=3's block passes, k=5's is refused at (alpha, beta) = (2, 5)
    ("_check_task", ("f", "--k", "3,5", "--alpha-max", "4", "--beta-max", "5", "--bit-cap", "100"),
     "25-bit base raised to 5 exceeds the 100-bit cap"),
    # the first remainder-table candidate passes, the second, p = 31, is refused
    ("_check_task", ("v10", "--alpha-max", "11", "--bit-cap", "60"),
     "25-bit base raised to 4 exceeds the 60-bit cap"),
])
def test_check_lemma_refuses_a_grid_before_deciding_any_block(kernel, argv, refused, monkeypatch,
                                                              capsys):
    monkeypatch.setattr(classify, kernel, _refuse(kernel))
    code, out, err = run_cli(capsys, "check-lemma", *argv)
    assert (code, out, err) == (2, "", f"operand size cap exceeded: {refused}\n")


@pytest.mark.parametrize("argv, refused", [
    (("cando", "--k", "-3"), "k must be odd and >= 3, got -3"),
    (("cando", "--k", "3,200000000"), "k must be odd and >= 3, got 200000000"),
    (("f", "--k", "-5"), "k must be a prime > 2 with 2**k - 1 prime, got -5"),
    (("f", "--k", "3,200000000"), "k must be a prime > 2 with 2**k - 1 prime, got 200000000"),
])
def test_check_lemma_validates_k_before_building_2k_minus_1(argv, refused, capsys):
    # 2**-3 would raise "negative shift count", and 2**200000000 - 1 takes 25 MB
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "check-lemma", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {refused}\n") and peak < 4 << 20, peak


_ODD_K, _PRIME_K = "k must be odd and >= 3, got {}", "k must be prime, got {}"
_MERSENNE_K = "k must be a prime > 2 with 2**k - 1 prime, got {}"
_K_KINDS = {"vs1": _ODD_K, "cando": _ODD_K, "appr": _ODD_K, "appr2": _ODD_K, "tv": _ODD_K,
            "tv2": _ODD_K, "f": _MERSENNE_K, "u1": _ODD_K, "v3": _ODD_K, "trichotomy": _PRIME_K}
# 200000001 = 3 * 66666667 is odd, so the odd-k tags refuse it at the operand
# cap, read from k alone: 2**200000001 - 1 would take 25 MB
_CAP = "the 1000000-bit cap"
_HUGE_ODD_K = {
    "vs1": f"200000001-bit base raised to 400000002 exceeds {_CAP}",
    "cando": f"200000001-bit base raised to 400000002 exceeds {_CAP}",
    "appr": f"2-bit base raised to a 200000029-bit exponent exceeds {_CAP}",
    "appr2": f"2-bit base raised to a 200000029-bit exponent exceeds {_CAP}",
    "tv": f"3-bit base raised to 400000002 exceeds {_CAP}",  # p = 5
    "tv2": f"2-bit base raised to 400000002 exceeds {_CAP}",  # p = 3
    "u1": f"200000002-bit base raised to 2 exceeds {_CAP}",  # (2**k)**2
    "v3": f"2-bit base raised to 400000001 exceeds {_CAP}",  # 3**(2k - 1)
}


@pytest.mark.parametrize("k", [-3, 200_000_000, 200_000_001])
@pytest.mark.parametrize("tag", list(_K_KINDS))
def test_check_lemma_refuses_a_bad_or_huge_k_by_its_kind_before_building_from_it(tag, k, capsys):
    # each tag's k rule runs before any number is built from k: a negative k
    # once failed in a shift, and a huge one was built before it was refused
    if tag in _HUGE_ODD_K and k == 200_000_001:
        expected = f"operand size cap exceeded: {_HUGE_ODD_K[tag]}\n"
    else:
        expected = f"error: {_K_KINDS[tag].format(k)}\n"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "check-lemma", tag, f"--k={k}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", expected) and peak < 4 << 20, peak


@pytest.mark.parametrize("argv", [
    ("search", "--k", "44497", "--alpha-max", "2"),
    ("search", "--k", "2203"),
    ("verify-theorem", "--k", "44497"),
    ("check-lemma", "f", "--k", "21701"),
])
def test_mersenne_k_past_the_bound_is_refused_before_lucas_lehmer(argv, monkeypatch, capsys):
    # Lucas-Lehmer took 26 s at k = 21701; mersenne and perfect share the bound
    monkeypatch.setattr(primality, "lucas_lehmer", _refuse("lucas_lehmer"))
    k = argv[argv.index("--k") + 1]
    bound = primality.MAX_MERSENNE_BOUND
    expected = (2, "", f"error: Mersenne exponent {k} is beyond the limit {bound}\n")
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("tag, k, width", [
    ("appr", 20001, 20016), ("appr2", 20001, 20016), ("appr2", 10001, 10015),
])
def test_check_lemma_names_a_wide_exponent_by_its_width(tag, k, width, capsys):
    # str() of the exponent, about 6,000 digits at k = 20001, raised for
    # passing 4,300 digits, and printed 3,000 digits at k = 10001
    expected = f"operand size cap exceeded: 2-bit base raised to a {width}-bit exponent exceeds {_CAP}\n"
    assert run_cli(capsys, "check-lemma", tag, "--k", str(k)) == (2, "", expected)


def test_check_lemma_v10_at_alpha_max_0_checks_its_candidates_without_a_sieve(monkeypatch,
                                                                              capsys):
    # its p-bound alpha range is empty; the sieve once failed in a negative shift
    monkeypatch.setattr(classify, "primes_upto", _refuse("primes_upto"))
    code, out, err = run_cli(capsys, "check-lemma", "v10", "--alpha-max", "0")
    lines = out.splitlines()
    assert (code, err, lines[-1]) == (0, "", "v10: 4/4 pass")
    assert all(line.startswith("v10  candidate alpha=") for line in lines[:-1])
    assert classify.verify_lemma410(0)


class _Discard:
    """A stdout that drops what is written to it, so that only the
    program's own memory is traced."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ("sl3", "--beta1-max", "64", "--lambda-max", "64", "--p1-max", "64"),  # 322,560 rows
    ("tv", "--k", "3,5,7,13", "--p-max", "20000", "--v-max", "6", "--beta1-max", "11"),
])
def test_check_lemma_holds_one_block_in_memory(argv, monkeypatch):
    # holding every row before one write peaked at 87.5 and 43.0 MiB here
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["check-lemma", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 4 << 20, peak


def _grid_argv(g: LemmaGrid) -> list[str]:
    argv = ["--k=" + ",".join(map(str, g.k_values))]  # "=": argparse takes "-3,5" for a flag
    for name, value in g._asdict().items():
        if name != "k_values" and value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def _expected_cli(tag: str, g: LemmaGrid) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of check-lemma, built from the rows of
    run_lemma_grid or from its refusal."""
    try:
        rows = classify.run_lemma_grid(tag, g)
    except OperandSizeError as exc:
        return 2, "", f"operand size cap exceeded: {exc}\n"
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    lines = "".join(f"{tag}  {r.label}: {r.outcome}\n" for r in rows)
    checked = [r.ok for r in rows if r.ok is not None]
    if not checked:
        return 0, lines + f"{tag}: {len(rows)} informational row(s)\n", ""
    return 0 if all(checked) else 2, lines + f"{tag}: {sum(checked)}/{len(checked)} pass\n", ""


@settings(max_examples=60, deadline=None)
@example(tag="tv", k_values=[13, 4], p_max=40, v_max=12, beta1_max=9, alpha_max=8, beta_max=6,
         lambda_max=5, p1_max=9, bit_cap=1000)  # refused in k=13's first block
@example(tag="tv", k_values=[3, 13], p_max=40, v_max=2, beta1_max=3, alpha_max=8, beta_max=6,
         lambda_max=5, p1_max=9, bit_cap=120)  # refused in the second block, at k=13
@example(tag="v10", k_values=[5], p_max=40, v_max=2, beta1_max=3, alpha_max=11, beta_max=6,
         lambda_max=5, p1_max=9, bit_cap=60)  # refused at the second candidate
@example(tag="v10", k_values=[5], p_max=40, v_max=2, beta1_max=3, alpha_max=0, beta_max=6,
         lambda_max=5, p1_max=9, bit_cap=20)  # the first candidate is refused before the sieve
@example(tag="cando", k_values=[3, 200_000_000], p_max=40, v_max=2, beta1_max=3, alpha_max=8,
         beta_max=6, lambda_max=5, p1_max=9, bit_cap=None)  # refused before 2**k - 1 is built
@example(tag="f", k_values=[3, 200_000_000], p_max=40, v_max=2, beta1_max=3, alpha_max=8,
         beta_max=6, lambda_max=5, p1_max=9, bit_cap=None)
@given(
    tag=st.sampled_from(classify.LEMMA_TAGS),
    k_values=st.lists(st.sampled_from((-3, 3, 4, 5, 7, 13)), min_size=1, max_size=3, unique=True),
    p_max=st.integers(1, 120),
    v_max=st.integers(0, 7),
    beta1_max=st.integers(0, 9),
    alpha_max=st.integers(0, 9),
    beta_max=st.integers(1, 9),
    lambda_max=st.integers(1, 4),
    p1_max=st.integers(0, 7),
    bit_cap=st.one_of(st.none(), st.integers(8, 3000)),
)
def test_check_lemma_streams_the_rows_of_run_lemma_grid(
    tag, k_values, p_max, v_max, beta1_max, alpha_max, beta_max, lambda_max, p1_max, bit_cap
):
    # the command writes block by block; what it writes must be the lines and
    # summary of the rows run_lemma_grid returns, or nothing and its refusal
    g = LemmaGrid(k_values=tuple(k_values), p_max=p_max, v_max=v_max, beta1_max=beta1_max,
                  alpha_max=alpha_max, beta_max=beta_max, lambda_max=lambda_max, p1_max=p1_max,
                  bit_cap=bit_cap)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-lemma", tag, *_grid_argv(g)])
    assert (code, out.getvalue(), err.getvalue()) == _expected_cli(tag, g)


def test_check_lemma_refuses_a_repeated_exponent(capsys):
    # each k would get its rows twice, and the pass count would double
    code, out, err = run_cli(capsys, "check-lemma", "tv", "--k", "3,5,3", "--p-max", "14",
                             "--v-max", "1", "--beta1-max", "1")
    assert code == 2 and out == ""
    assert err == "error: exponent k=3 is repeated in the grid's k values\n"


@pytest.mark.parametrize("tag", ["sl3", "v10"])
def test_check_lemma_tags_without_k_ignore_a_repeated_one(tag, capsys):
    # neither tag reads --k, so a repeated one changes nothing
    assert run_cli(capsys, "check-lemma", tag, "--k", "3,3") == run_cli(capsys, "check-lemma", tag)


# Modules only some commands need: the scan engine and the quartic remainder
# table, the worker pool, exact fractions and the run record's clock.
_ENGINE_POOL_FRACTION_CLOCK = {
    "sigmaperfect.classify", "sigmaperfect.polyrem", "multiprocessing", "fractions", "datetime",
}
# The record types are NamedTuples, so no command loads dataclasses (or the
# inspect it imports), and json is imported only where a run record is written
# or read.
_RECORD_TYPES_AND_JSON = {"dataclasses", "inspect", "json"}


def _cold_run(*argv: str) -> tuple[int, set[str]]:
    """Exit code and loaded modules of one CLI run in a fresh interpreter;
    with no argv, the modules after a bare import of the CLI."""
    probe = (
        "import sys; from sigmaperfect import cli; "
        "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "print(rc, *sorted(sys.modules), file=sys.stderr)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    rc, *modules = proc.stderr.split()
    return int(rc), set(modules)


def test_cli_cold_start_leaves_engine_pool_fraction_and_clock_modules_unloaded():
    # sigma, mersenne and perfect start on exactint, primality, sigma and
    # valuations alone; what a bare interpreter already loads is allowed
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60, check=True)
    preloaded = set(bare.stdout.split())
    for argv in ((), ("sigma", "28", "1"), ("mersenne", "--upto", "31"), ("perfect", "--upto", "13")):
        rc, loaded = _cold_run(*argv)
        assert rc == 0 and "sigmaperfect.cli" in loaded, argv
        assert _ENGINE_POOL_FRACTION_CLOCK & (loaded - preloaded) == set(), argv
        assert _RECORD_TYPES_AND_JSON & (loaded - preloaded) == set(), argv
    # the commands that need the engine load it on their first call; only
    # search, which writes a json-lines record, loads json
    for argv, json_loaded in ((("search", "--k", "5", "--alpha-max", "6", "--beta-max", "2"), True),
                              (("check-lemma", "vs1", "--k", "3"), False)):
        rc, loaded = _cold_run(*argv)
        assert rc == 0 and "sigmaperfect.classify" in loaded, argv
        assert {"dataclasses", "inspect"} & (loaded - preloaded) == set(), argv
        assert ("json" in loaded) if json_loaded else ("json" not in loaded - preloaded), argv


def test_classify_reexports_the_one_cross_check_error():
    assert classify.CrossCheckError is exactint.CrossCheckError
    assert "CrossCheckError" in classify.__all__


@pytest.mark.parametrize("argv, target", [
    (("verify-theorem", "--k", "5", "--alpha-max", "6"), "scan_special_forms"),
    (("check-lemma", "tv", "--k", "3", "--p-max", "20"), "_tv_rows"),
])
def test_cross_check_error_from_the_lazily_loaded_engine_exits_2(argv, target, monkeypatch,
                                                                 capsys):
    def failing(*args, **kwargs):
        raise classify.CrossCheckError("injected")

    monkeypatch.setattr(classify, target, failing)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "cross-check failure: injected\n")


def test_check_lemma_choices_are_the_lemma_tags_in_order():
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    tag = next(a for a in subcommands.choices["check-lemma"]._actions if a.dest == "tag")
    assert list(tag.choices) == list(classify.LEMMA_TAGS) == list(classify._LEMMAS)
    assert classify.LEMMA_TAGS is valuations.LEMMA_TAGS


@pytest.mark.parametrize("name, argv, code", [
    ("check-lemma-help", ("check-lemma", "--help"), 0),
    ("check-lemma-nope", ("check-lemma", "nope"), 2),
])
def test_check_lemma_parser_text_matches_golden(name, argv, code, monkeypatch, capsys):
    # argparse wraps at the terminal width; the goldens are at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    golden = Path(__file__).parent / "golden" / f"{name}.txt"
    assert exc.value.code == code
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")


# The benchmark's self-test faults, applied in process at the benchmark's own
# grids: each must fail its run. The direct route lies at (p, beta, alpha) =
# (7, 2, 3), n = 28, and the tv block of (base, c) = (5, 3) at its first row.
_BENCH_SEARCH = ("search", "--k", "5", "--alpha-max", "15", "--beta-max", "16")
_BENCH_LEMMA_FLAGS = (
    "--p-max", "1500", "--v-max", "6", "--beta1-max", "11", "--lambda-max", "8",
    "--p1-max", "31", "--alpha-max", "12", "--beta-max", "10",
)


def _flip_direct_route_at(m, point):
    real = classify._direct_block

    def lying(k, blocks):
        divides = real(k, blocks)
        for i, at in enumerate(classify._block_points(blocks)):
            if at == point:
                divides[i] = not divides[i]
        return divides

    m.setattr(classify, "_direct_block", lying)


def test_a_lying_direct_route_fails_the_benchmark_scans(capsys):
    with pytest.MonkeyPatch.context() as m:
        _flip_direct_route_at(m, (7, 2, 3))
        code, _, err = run_cli(capsys, *_BENCH_SEARCH)
        assert code == 2
        assert err == (
            "cross-check failure: conditions disagree with direct divisibility at "
            "(alpha, p, beta, k) = (3, 7, 2, 5): divides=False, cond1=True, cond2=True\n"
        )
        with pytest.raises(exactint.CrossCheckError) as caught:
            classify.equivalence_scan(3 * 10**6)
    assert str(caught.value) == (
        "conditions disagree with direct divisibility at "
        "(alpha, p, beta, k) = (3, 7, 2, 3): divides=True, cond1=True, cond2=False"
    )


def test_a_lying_tv_row_fails_the_benchmark_lemma_grid(capsys):
    real = classify._exact_flags

    def lying(e, base, c, v_max, beta1_max):
        flags = real(e, base, c, v_max, beta1_max)
        if (base, c) == (5, 3):
            flags[0] = not flags[0]
        return flags

    argv = ("check-lemma", "tv", "--k", "3,5,7,13", *_BENCH_LEMMA_FLAGS)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.endswith("tv: 16704/16704 pass\n")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_exact_flags", lying)
        code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out.endswith("tv: 16703/16704 pass\n")
    assert [line for line in out.splitlines() if "FAIL" in line] == ["tv  p=5 k=3 v=1 beta1=1: FAIL"]
