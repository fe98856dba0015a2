import json
import math
import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gevreykit
from gevreykit import cli, parametrix
from gevreykit.cli import TOL_IDENTITY, _parser, main
from gevreykit.funcspec import MAX_SPEC_DEPTH
from gevreykit.multiindex import enumerate_decompositions
from gevreykit.parametrix import MAX_OPERATOR_TERMS
from gevreykit.schemas import _RESULT_KEYS, schema_id, validate_report
from gevreykit.sequences import SEQ_AUDIT_PMAX_MAX
from gevreykit.wavefront import (
    GridField,
    ScanParams,
    catalog_field,
    read_gridfield,
    wf_scan,
    write_gridfield,
)


def run(args, tmp_path, name="out.json"):
    out = os.path.join(tmp_path, name)
    code = main(args + ["--out", out])
    report = json.loads(open(out).read()) if os.path.exists(out) else None
    return code, report


def test_seq_audit_command(tmp_path):
    code, rep = run(["seq-audit", "--tau", "1", "--sigma", "2", "--pmax", "40"], tmp_path)
    assert code == 0
    assert rep["result"]["m1_ok"] is True
    assert rep["result"]["ratio_bound_ok"] is True
    validate_report(rep)


def test_fdb_command_worked_example(tmp_path):
    code, rep = run(
        ["fdb", "--f", "poly:0,0,1", "--g", "poly:0,0,0,1", "--alpha", "2",
         "--at", "1", "--check-jet"],
        tmp_path,
    )
    assert code == 0
    assert rep["result"]["value"] == 30.0
    assert rep["result"]["jet_agrees"] is True
    validate_report(rep)


def test_decomp_command(tmp_path):
    code, rep = run(["decomp", "--alpha", "4", "--census"], tmp_path)
    assert code == 0
    assert rep["result"]["count"] == 5
    validate_report(rep)
    code, rep = run(["decomp", "--alpha", "2,1"], tmp_path)
    assert code == 0
    assert len(rep["result"]["decompositions"]) == 4


def test_lemma23_command(tmp_path):
    code, rep = run(["lemma23", "--tau", "1", "--sigma", "2", "--kmax", "10"], tmp_path)
    assert code == 0
    assert rep["result"]["log_C"] >= 0.0
    validate_report(rep)


def test_lemma23_kmax_above_the_cap_exits_1(tmp_path, capsys):
    # the search's cost grows as kmax^3; the cap keeps one run near a second
    for kmax in ("401", "1"):
        code, rep = run(["lemma23", "--tau", "0.1", "--sigma", "1.1", "--kmax", kmax], tmp_path)
        assert code == 1 and rep is None
        assert _one_line_error(capsys) == f"gevrey: k_max must lie in 2..400, got {kmax}\n"


def test_fit_command(tmp_path):
    csv = os.path.join(tmp_path, "growth.csv")
    with open(csv, "w") as fh:
        fh.write("n,log_sup_abs_derivative\n")
        for n in range(25):
            v = (n * n) * math.log(n) if n > 1 else 0.0
            fh.write(f"{n},{v}\n")
    code, rep = run(["fit", "--data", csv, "--sigma-grid", "1.5,2,2.5,3"], tmp_path)
    assert code == 0
    assert rep["result"]["sigma_hat"] == 2.0
    assert abs(rep["result"]["tau_hat"] - 1.0) <= 0.1
    validate_report(rep)


def test_unknown_flag_exits_1_no_output(tmp_path, capsys):
    out = os.path.join(tmp_path, "nope.json")
    code = main(["seq-audit", "--tau", "1", "--sigma", "2", "--bogus", "--out", out])
    assert code == 1
    assert not os.path.exists(out)


def test_validation_failure_exit_1(tmp_path):
    code = main(["seq-audit", "--tau", "-1", "--sigma", "2"])
    assert code == 1


def test_io_error_exit_2(tmp_path):
    code = main(["fit", "--data", os.path.join(tmp_path, "missing.csv")])
    assert code == 2


def test_catalog_emission_and_fields(tmp_path):
    outdir = os.path.join(tmp_path, "fields")
    code = main(["catalog", "--out", outdir, "--report", os.path.join(tmp_path, "cat.json")])
    assert code == 0
    rep = json.loads(open(os.path.join(tmp_path, "cat.json")).read())
    assert len(rep["result"]["files"]) >= 4
    validate_report(rep)

    step = read_gridfield(os.path.join(outdir, "step2d.gf"))
    x1 = step.axis_coords(0)
    assert np.all(step.samples[x1 < 0, :] == 0.0)
    assert np.all(step.samples[x1 > 0, :] == 1.0)

    # kink satisfies its defining equation x u'' = 0 on the grid
    kink = read_gridfield(os.path.join(outdir, "kink.gf"))
    x = kink.axis_coords(0)
    h = kink.spacing[0]
    u = kink.samples
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    residual = np.max(np.abs(x[1:-1] * upp))
    assert residual <= 1e-9

    delta = read_gridfield(os.path.join(outdir, "delta.gf"))
    assert math.isclose(delta.samples.sum() * delta.cell_volume, 1.0)


def test_parametrix_command(tmp_path):
    code, rep = run(
        ["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "6",
         "--cone", "1,0.4,6", "--phi", "0,0.15,0.4", "--grid", "256"],
        tmp_path,
    )
    assert code == 0
    r = rep["result"]
    assert r["residual_ok"] and r["max_residual"] <= 1e-8
    assert r["word_count_matches_recurrence"]
    assert r["audit_ok"]
    # one [j, alpha, ln A, ln h] per audited reduction coefficient
    assert r["coefficient_log_fits"]
    for j, alpha, log_a, log_h in r["coefficient_log_fits"]:
        assert 1 <= j <= 2 and len(alpha) == 1 and math.isfinite(log_a) and log_h >= 0
    validate_report(rep)


# reports written before the symbol ring had index tables: the ring must
# keep producing the same keys, in the same order, with the same scales.
# The m = 1 report was written when the evaluator's jets still started at
# order N + m + 2 and its audit (D^6 of the coefficients) regrew them
GOLDEN_REPORTS = {
    "parametrix_m2_N6.json": ["--op", "poly:5/2*D^2 + sin*D^2 + cos*D + poly:1", "--N", "6"],
    "parametrix_m3_N5.json": ["--op", "D^3 + compose(sin,poly:1/2,1)*D^2 + exp*D + poly:2",
                              "--N", "5"],
    "parametrix_m1_N1_b6.json": ["--op", "D + sin", "--N", "1", "--beta-max", "6"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_parametrix_report_is_byte_identical_to_its_golden_copy(name, tmp_path):
    out = os.path.join(tmp_path, name)
    assert main(["parametrix", *GOLDEN_REPORTS[name], "--grid", "64", "--out", out]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", name)
    with open(out, "rb") as got, open(golden, "rb") as want:
        assert got.read() == want.read()


# fdb --check-jet reports written before jet_of kept its recent jets and
# before the exact decomposition sum ran on integer numerators
GOLDEN_FDB_REPORTS = {
    "fdb_1d.json": ["--f", "compose(recip,poly:2,0,1)", "--g", "prod(cos,poly:0.3,1)",
                    "--alpha", "8", "--at=0.4"],
    "fdb_2d.json": ["--f", "exp", "--g",
                    "sum(mvpoly:0,1:1/3;1,1:-0.5;2,0:1,compose(sin,mvpoly:1,0:1;0,2:0.25))",
                    "--alpha", "3,5", "--at=0.2,-0.3"],
    "fdb_3d.json": ["--f", "sin", "--g", "compose(exp,mvpoly:1,0,0:1;0,1,1:2;2,0,1:-0.75)",
                    "--alpha", "2,1,3", "--at=0.1,-0.2,0.3"],
    "fdb_deep.json": ["--f", "compose(sin,compose(cos," * 6 + "poly:0.412,0.637" + "))" * 6,
                      "--g", "compose(sin,poly:0.1,0.5,-0.25)", "--alpha", "8", "--at=-0.35"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FDB_REPORTS))
def test_fdb_check_jet_report_is_byte_identical_to_its_golden_copy(name, tmp_path):
    out = os.path.join(tmp_path, name)
    assert main(["fdb", *GOLDEN_FDB_REPORTS[name], "--check-jet", "--out", out]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", name)
    with open(out, "rb") as got, open(golden, "rb") as want:
        assert got.read() == want.read()


# reports of the other commands, written by json.dumps(indent=2) before the
# report writer let json's C encoder format numeric rows. Each runs in an
# empty directory with relative paths, because a report echoes its paths.
# The report is written under its golden's name, and a --csv beside it
GOLDEN_COMMAND_REPORTS = {
    "seq_audit_t1_s2_p200.json": ["seq-audit", "--tau", "1", "--sigma", "2", "--pmax", "200",
                                  "--out", "seq_audit_t1_s2_p200.json"],
    "lemma23_t0.1_s1.1_k20.json": ["lemma23", "--tau", "0.1", "--sigma", "1.1", "--kmax", "20",
                                   "--out", "lemma23_t0.1_s1.1_k20.json"],
    "fit_growth_small.json": ["fit", "--data", "growth_small.csv",
                              "--out", "fit_growth_small.json"],
    "decomp_3_2.json": ["decomp", "--alpha", "3,2", "--out", "decomp_3_2.json"],
    "wf_scan_kink.json": ["wf-scan", "--field", "fields/kink.gf", "--points", "0;0.5",
                          "--dirs", "2", "--tau", "1", "--sigma", "2",
                          "--csv", "wf_scan_kink.csv", "--out", "wf_scan_kink.json"],
    "catalog.json": ["catalog", "--out", "fields", "--report", "catalog.json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMAND_REPORTS))
def test_command_report_is_byte_identical_to_its_golden_copy(name, tmp_path, monkeypatch):
    data = os.path.join(os.path.dirname(__file__), "data")
    monkeypatch.chdir(tmp_path)
    shutil.copy(os.path.join(data, "growth_small.csv"), ".")
    os.mkdir("fields")
    write_gridfield(catalog_field("kink"), os.path.join("fields", "kink.gf"))
    argv = GOLDEN_COMMAND_REPORTS[name]
    assert main(argv) == 0
    written = [name] + [argv[i + 1] for i, a in enumerate(argv) if a == "--csv"]
    for path in written:
        with open(path, "rb") as got, open(os.path.join(data, path), "rb") as want:
            assert got.read() == want.read(), path


_NUMBERS = (st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
_STRINGS = (st.text(st.sampled_from('"\\[],{}: aé☃\n\x00') | st.characters(), max_size=6)
            | st.sampled_from(["],[", "[]", '"', "\\"]))
_SCALARS = st.none() | st.booleans() | _NUMBERS | _STRINGS
_ROWS = st.lists(st.lists(_NUMBERS | st.none() | st.booleans(), min_size=1, max_size=4), max_size=4)


def _containers(kids):
    items = st.lists(kids, max_size=4)
    # one key type per dict, so that most dicts sort; a mixed one raises TypeError
    keys = _STRINGS | st.integers() | st.floats() | st.booleans() | st.none()
    dicts = st.one_of(*(st.dictionaries(k, kids, max_size=4) for k in (_STRINGS, st.integers())),
                      st.dictionaries(keys, kids, max_size=3))
    return items | items.map(tuple) | dicts | _ROWS


def _dumps_or_error(text_of, doc):
    try:
        return text_of(doc)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.recursive(_SCALARS | _ROWS, _containers, max_leaves=24))
@example([])
@example([[]])
@example([[1], []])
@example([[1, [2]]])
@example([[[None]], None])
@example(["],["])
@example(["a,b"])
@example([(1, 2.5)])
@example([np.float64(0.1)])
@example([np.int64(3)])
@example({1: 2})
@example([[float("nan")]])
@example([0, {"b": float("nan"), "a": np.int64(1)}])  # json fails on "a" first
def test_report_text_is_json_dumps_with_indent_2(doc):
    want = _dumps_or_error(lambda d: json.dumps(d, sort_keys=True, indent=2, allow_nan=False), doc)
    assert _dumps_or_error(cli._report_text, doc) == want


def test_parametrix_max_residual_is_the_measured_maximum(tmp_path, monkeypatch):
    # the README example: the report prints max |(I - R) w_N - (phi - e_N)|
    # itself, recomputed here from the Neumann sums the command built
    built = []
    sums_of = parametrix.neumann_sums

    def keep(*args, **kwargs):
        built.append(sums_of(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(parametrix, "neumann_sums", keep)
    code, rep = run(
        ["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "8",
         "--cone", "1,0.4,6", "--phi", "0,0.15,0.4"],
        tmp_path,
    )
    assert code == 0
    (sums,) = built
    system = sums.system
    r_of_w = parametrix._merge(
        parametrix._apply_reduction(system, op, sums.w_sum) for op in system.operators
    )
    lhs = sums.w_values - sums.evaluator.eval_sum(r_of_w, sums.xi_samples)
    measured = float(np.max(np.abs(lhs - (sums.phi_values - sums.e_values))))
    r = rep["result"]
    assert r["max_residual"] == measured
    assert r["residual_ok"] == (measured <= TOL_IDENTITY)


def test_report_schemas_cover_every_command_and_reject_bad_reports(tmp_path):
    import jsonschema

    from gevreykit import cli
    from gevreykit.schemas import REPORT_SCHEMAS, schema_id

    assert set(REPORT_SCHEMAS) == set(cli._DISPATCH)
    code, rep = run(["lemma23", "--tau", "1", "--sigma", "2", "--kmax", "6"], tmp_path)
    assert code == 0
    validate_report(rep)
    with pytest.raises(ValueError, match="unknown report schema"):
        validate_report(dict(rep, schema="gevrey-kit/nope/v1"))
    with pytest.raises(jsonschema.ValidationError):
        validate_report(dict(rep, result={"witness_k": rep["result"]["witness_k"]}))
    # wf-scan pins the type of its verdicts
    with pytest.raises(jsonschema.ValidationError):
        validate_report(dict(rep, schema=schema_id("wf-scan"), result={"verdicts": {}}))


_ENVELOPE_RUNS = {
    "seq-audit": ["--tau", "1", "--sigma", "2", "--pmax", "20"],
    "decomp": ["--alpha", "2,1"],
    "fdb": ["--f", "sin", "--g", "exp", "--alpha", "2", "--at", "0.5"],
    "lemma23": ["--tau", "1", "--sigma", "2", "--kmax", "6"],
    "fit": ["--data", "{dir}/growth.csv"],
    "wf-scan": ["--field", "{dir}/delta.gf", "--points", "0.0", "--dirs", "2", "--tau", "1",
                "--sigma", "2", "--rp", "0.15", "--rs", "0.35"],
    "parametrix": ["--op", "D^2", "--N", "2", "--grid", "64", "--beta-max", "1"],
    "catalog": ["--out", "{dir}/fields"],
}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_RUNS))
def test_every_report_names_its_command_and_echoes_the_seed(name, tmp_path):
    write_gridfield(catalog_field("delta"), os.path.join(tmp_path, "delta.gf"))
    with open(os.path.join(tmp_path, "growth.csv"), "w") as fh:
        fh.writelines(f"{n},{n * n * math.log(n) if n > 1 else 0.0}\n" for n in range(25))
    argv = [a.format(dir=tmp_path) for a in _ENVELOPE_RUNS[name]]
    out = os.path.join(tmp_path, "report.json")
    flag = "--report" if name == "catalog" else "--out"
    assert main(["--seed", "7", name, *argv, flag, out]) == 0
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["schema"] == schema_id(name)
    assert rep["config"]["command"] == name and rep["config"]["seed"] == 7
    validate_report(rep)


def test_decomp_without_out_streams_json_lines_and_no_report(capsys):
    assert main(["--seed", "7", "decomp", "--alpha", "2,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(set(json.loads(ln)) == {"parts", "multiplicities"} for ln in lines)


def test_decomp_without_out_writes_each_line_as_it_is_found(capsys, monkeypatch):
    first = next(enumerate_decompositions((2, 1)))

    def failing_after_one(alpha):
        yield first
        raise ValueError("enumeration stopped")

    monkeypatch.setattr(cli, "enumerate_decompositions", failing_after_one)
    assert main(["decomp", "--alpha", "2,1"]) == 1
    out = capsys.readouterr()
    assert [json.loads(ln) for ln in out.out.splitlines()] == [
        {"parts": [list(p) for p in first.parts], "multiplicities": list(first.multiplicities)}
    ]
    assert out.err == "gevrey: enumeration stopped\n"


def test_decomp_report_above_the_cap_exits_1_before_enumerating(tmp_path, capsys, monkeypatch):
    def never(alpha):
        raise AssertionError("the enumerator ran before the cap was checked")

    monkeypatch.setattr(cli, "enumerate_decompositions", never)
    code, rep = run(["decomp", "--alpha", "41"], tmp_path)  # 44,583 decompositions
    assert code == 1 and rep is None
    err = _one_line_error(capsys)
    assert "44583 decompositions" in err and "--census" in err
    # the cap is inclusive: (4,) has 5 decompositions, (5,) has 7
    monkeypatch.undo()
    monkeypatch.setattr(cli, "DECOMP_OUT_MAX", 5)
    code, rep = run(["decomp", "--alpha", "4"], tmp_path)
    assert code == 0 and len(rep["result"]["decompositions"]) == 5
    monkeypatch.setattr(cli, "enumerate_decompositions", never)
    code, rep = run(["decomp", "--alpha", "5"], tmp_path, name="five.json")
    assert code == 1 and rep is None
    assert "7 decompositions, more than the 5" in _one_line_error(capsys)


def test_seq_audit_pmax_outside_its_range_exits_1(tmp_path, capsys):
    # the audit is O(p_max^2); the cap keeps one run near a second
    top = SEQ_AUDIT_PMAX_MAX
    for pmax in (top + 1, 2):
        code, rep = run(["seq-audit", "--tau", "1", "--sigma", "2", "--pmax", str(pmax)], tmp_path)
        assert code == 1 and rep is None
        assert _one_line_error(capsys) == f"gevrey: p_max must lie in 3..{top}, got {pmax}\n"
    with pytest.raises(SystemExit):
        _parser().parse_args(["seq-audit", "--help"])
    assert f"3..{top}" in capsys.readouterr().out


def test_catalog_without_report_prints_its_report(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "fields")
    assert main(["--seed", "7", "catalog", "--out", outdir]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == schema_id("catalog") and rep["config"]["seed"] == 7
    assert sorted(rep["result"]["files"]) == sorted(os.listdir(outdir))
    validate_report(rep)


def test_wf_scan_command(tmp_path):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    code, rep = run(
        ["wf-scan", "--field", os.path.join(outdir, "delta.gf"),
         "--points", "0.0;0.6", "--dirs", "2", "--tau", "1", "--sigma", "2",
         "--rp", "0.15", "--rs", "0.35"],
        tmp_path,
    )
    assert code == 0
    verdicts = rep["result"]["verdicts"]
    assert len(verdicts) == 4
    assert all(not v["regular"] for v in verdicts[:2])
    assert all(v["regular"] for v in verdicts[2:])
    validate_report(rep)


def test_wf_scan_csv_rows_are_the_scan_profiles(tmp_path):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    scan = ["wf-scan", "--field", os.path.join(outdir, "delta.gf"), "--dirs", "2",
            "--tau", "1", "--sigma", "2", "--rp", "0.15", "--rs", "0.35"]

    # every profile fails (no bins beyond Nyquist): error verdicts, exit 0
    csv = os.path.join(tmp_path, "none.csv")
    code, rep = run(scan + ["--points", "0.0;0.6", "--ximin", "1000", "--csv", csv],
                    tmp_path, "none.json")
    assert code == 0
    assert all(v["error"] for v in rep["result"]["verdicts"])
    assert open(csv).read() == "point;direction;N;log_value\n"

    # the cutoff at 0.9 leaves the grid: one data block per verdict without error
    csv = os.path.join(tmp_path, "some.csv")
    code, rep = run(scan + ["--points", "0.0;0.6;0.9", "--nmax", "20", "--csv", csv],
                    tmp_path, "some.json")
    assert code == 0
    verdicts = rep["result"]["verdicts"]
    clean = [v for v in verdicts if v["error"] is None]
    assert len(verdicts) == 6 and len(clean) == 4
    rows = open(csv).read().splitlines()[1:]
    assert len(rows) == len(clean) * 21
    assert rows[0].startswith("0.0;1.0;0;") and rows[-1].startswith("0.6;-1.0;20;")


def test_malformed_gridfield_header_exits_1(tmp_path, capsys):
    path = os.path.join(tmp_path, "short.gf")
    with open(path, "w") as fh:
        fh.write("GRIDFIELD 1 2 16,16 0 0 0.1\n")
    code = main(["wf-scan", "--field", path, "--points", "0,0", "--tau", "1", "--sigma", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "malformed GRIDFIELD header" in err and len(err.splitlines()) == 1


def test_wf_scan_2d_needs_three_dirs(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    capsys.readouterr()
    scan = ["wf-scan", "--field", os.path.join(outdir, "step2d.gf"), "--points", "0,0",
            "--tau", "1", "--sigma", "2", "--threads", "1"]
    for dirs in ("0", "2"):
        code, rep = run(scan + ["--dirs", dirs], tmp_path, f"dirs{dirs}.json")
        err = capsys.readouterr().err
        assert code == 1 and rep is None, dirs
        assert f"needs at least 3 directions, got {dirs}" in err and len(err.splitlines()) == 1
    code, rep = run(scan + ["--dirs", "3"], tmp_path, "dirs3.json")
    assert code == 0
    assert len(rep["result"]["verdicts"]) == 3


def test_non_finite_numbers_exit_1(tmp_path, capsys):
    small = ["parametrix", "--op", "D^2", "--N", "2", "--grid", "64", "--beta-max", "1"]
    cases = {
        "phi": (small + ["--phi", "nan,0.1,0.4"], "--phi"),
        "cone": (small + ["--cone", "1,0.4,nan"], "--cone"),
        "cone2": (small + ["--cone", "1,0.4"], "--cone"),
        # cones that were read as some other cone: the sign alone, xi_min raised to 4
        "cone_angle": (small + ["--cone", "1,5,6"], "--cone '1,5,6': half_angle must lie in"),
        "cone_flat": (small + ["--cone", "1,0,6"], "--cone '1,0,6': half_angle must lie in"),
        "cone_dir": (small + ["--cone=0,-3,-7"], "--cone '0,-3,-7': direction must be nonzero"),
        "cone_xi": (small + ["--cone", "1,0.4,0"], "--cone '1,0.4,0': xi_min must be positive"),
        "cone_xi_neg": (small + ["--cone=-1,0.4,-2"], "--cone '-1,0.4,-2': xi_min must be"),
        "tau": (small + ["--tau", "nan"], "--tau"),
        "at": (["fdb", "--f", "sin", "--g", "sin", "--alpha", "1", "--at", "nan"], "--at"),
        "sigma_inf": (["seq-audit", "--tau", "1", "--sigma", "inf"], "finite"),
        "tau_nan": (["seq-audit", "--tau", "nan", "--sigma", "2"], "finite"),
        "lemma23": (["lemma23", "--tau", "1", "--sigma", "nan"], "finite"),
    }
    for name, (args, needle) in cases.items():
        code, rep = run(args, tmp_path, f"{name}.json")
        err = capsys.readouterr().err
        assert code == 1 and rep is None, name
        assert needle in err and len(err.splitlines()) == 1, (name, err)


@pytest.mark.parametrize("args, needle", [
    (["decomp", "--alpha", ""], "--alpha needs comma-separated integers, got ''"),
    (["decomp", "--alpha", "1,,2"], "--alpha needs comma-separated integers, got '1,,2'"),
    (["decomp", "--alpha", "a", "--census"], "--alpha needs comma-separated integers, got 'a'"),
    (["fdb", "--f", "sin", "--g", "sin", "--alpha", "1.5", "--at", "0"],
     "--alpha needs comma-separated integers, got '1.5'"),
    (["fdb", "--f", "sin", "--g", "sin", "--alpha", "1", "--at", ""],
     "--at needs only finite numbers, got ''"),
    (["fdb", "--f", "sin", "--g", "sin", "--alpha", "1", "--at", "x"],
     "--at needs only finite numbers, got 'x'"),
    (["wf-scan", "--field", "{dir}/delta.gf", "--points", "", "--tau", "1", "--sigma", "2"],
     "--points needs only finite numbers, got ''"),
    (["parametrix", "--op", "D^2", "--phi", "0,a,0.4"], "--phi needs 3 finite numbers"),
], ids=["alpha_empty", "alpha_gap", "alpha_word", "fdb_alpha", "at_empty", "at_word",
        "points_empty", "phi_word"])
def test_list_flags_name_themselves_on_a_malformed_token(args, needle, tmp_path, capsys):
    write_gridfield(catalog_field("delta"), os.path.join(tmp_path, "delta.gf"))
    code, rep = run([a.format(dir=tmp_path) for a in args], tmp_path)
    assert code == 1 and rep is None
    assert needle in _one_line_error(capsys)


def test_bad_literals_in_specs_and_operators_exit_1(tmp_path, capsys):
    # each bad token is named on one stderr line; no report is written
    small = ["--N", "3", "--grid", "64", "--beta-max", "1"]
    cases = {
        "nan": (["parametrix", "--op", "D^2 + poly:nan"] + small, "'nan'"),
        "inf": (["parametrix", "--op", "D^2 + poly:1,inf"] + small, "'inf'"),
        "huge": (["parametrix", "--op", "D^2 + sin*D + poly:1e999"] + small, "'1e999'"),
        "zero_den": (["parametrix", "--op", "D^2 + poly:1/0"] + small, "'1/0'"),
        "neg_power": (["parametrix", "--op", "D^-1"] + small,
                      "malformed derivative power in term 'D^-1'"),
        "neg_power_coeff": (["parametrix", "--op", "D^2 + sin*D^-2"] + small,
                            "malformed derivative power in term 'sin*D^-2'"),
        "no_caret": (["parametrix", "--op", "poly:1*D3"] + small,
                     "malformed derivative power in term 'poly:1*D3'"),
        "no_power": (["parametrix", "--op", "D^ + poly:1"] + small,
                     "malformed derivative power in term 'D^'"),
        "order_0": (["parametrix", "--op", "poly:1"] + small, "operator order 0: the parametrix"),
        "order_0_D": (["parametrix", "--op", "D^0"] + small, "operator order 0: the parametrix"),
        "no_term": (["parametrix", "--op", "+"] + small, "operator '+' has no term"),
        "blank": (["parametrix", "--op", " "] + small, "operator ' ' has no term"),
        "zero_principal": (["parametrix", "--op", "poly:0*D^2 + D"] + small,
                           "no coefficient at the stated order"),
        "zero_principal_prod": (["parametrix", "--op", "prod(poly:0,sin)*D^2 + D + poly:1"] + small,
                                "no coefficient at the stated order"),
        "neg_expo": (["fdb", "--f", "poly:0,0,1", "--g", "mvpoly:-1,2:3", "--alpha", "1,0",
                      "--at", "2,3", "--check-jet"], "'-1,2'"),
        "fdb_nan": (["fdb", "--f", "compose(exp,poly:0,nan)", "--g", "sin", "--alpha", "1",
                     "--at", "0.5"], "nan"),
    }
    for name, (args, needle) in cases.items():
        code, rep = run(args, tmp_path, f"{name}.json")
        err = capsys.readouterr().err
        assert code == 1 and rep is None, name
        assert needle in err and len(err.splitlines()) == 1, (name, err)


@pytest.mark.parametrize("args, dims", [
    (["--g", "mvpoly:0,1:1", "--alpha", "0,1", "--at=0.3"], "got 1, 2 and 2"),
    (["--g", "mvpoly:1,0:1", "--alpha", "1,1", "--at=0"], "got 1, 2 and 2"),
    (["--g", "sum(mvpoly:1,0:1,mvpoly:0,1:1)", "--alpha", "1,0", "--at=0.3,0.1,0.7",
      "--check-jet"], "got 3, 2 and 2"),
    (["--g", "poly:0,1", "--alpha", "2", "--at=0,0"], "got 2, 1 and 1"),
], ids=["short_point", "short_point_zero", "long_point_check_jet", "long_point_1d"])
def test_fdb_rejects_a_point_or_alpha_of_another_dimension(args, dims, tmp_path, capsys):
    # the point, alpha and g must agree: no coordinate is dropped or invented
    code, rep = run(["fdb", "--f", "exp", *args], tmp_path)
    err = capsys.readouterr().err
    assert code == 1 and rep is None
    assert dims in err and len(err.splitlines()) == 1, err


def test_fraction_coefficients_on_the_grid_exit_0(tmp_path):
    # p/q coefficients under exp/sin/cos: the grid jets stay float arrays
    small = ["--N", "3", "--grid", "64", "--beta-max", "1"]
    for name, op in {
        "sin": "D^2 + compose(sin,poly:1/2,1)*D + poly:1",
        "exp": "D^2 + compose(exp,poly:1/3,-2/7)*D + poly:1/2",
    }.items():
        code, rep = run(["parametrix", "--op", op] + small, tmp_path, f"{name}.json")
        assert code == 0 and rep["result"]["audit_ok"] is True, name


def test_a_principal_zero_off_the_grid_builds_and_reports(tmp_path):
    # P_m = (x - 0.17) xi^2 vanishes on no point of the 64-grid; the
    # reduction build evaluates nothing, so no point of its own trips it
    code, rep = run(["parametrix", "--op", "poly:-0.17,1*D^2", "--N", "3", "--grid", "64",
                     "--beta-max", "1"], tmp_path)
    assert code == 0 and rep["result"]["residual_ok"] is True


def test_wf_scan_rejects_points_off_the_field_dimension(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    capsys.readouterr()
    cases = {
        "kink2": ("kink.gf", "0,0", "point (0.0, 0.0)"),
        "step1": ("step2d.gf", "0", "point (0.0,)"),
        "kink_nan": ("kink.gf", "nan", "--points"),
    }
    for name, (field, points, needle) in cases.items():
        code, rep = run(["wf-scan", "--field", os.path.join(outdir, field), "--points", points,
                         "--tau", "1", "--sigma", "2", "--threads", "1"], tmp_path, f"{name}.json")
        err = capsys.readouterr().err
        assert code == 1 and rep is None, name
        assert needle in err and len(err.splitlines()) == 1, (name, err)
    # the library rejects a non-finite point itself, before any cutoff
    params = ScanParams(r_plateau=0.15, r_support=0.35, xi_min=2.5, N_max=20)
    with pytest.raises(ValueError, match="point"):
        wf_scan(read_gridfield(os.path.join(outdir, "kink.gf")), [(math.nan,)], 2, 1.0, 2.0, params)


def test_fit_rejects_gaps_and_duplicates(tmp_path):
    for name, orders in (("gaps", [0, 2, 5] + list(range(6, 20))),
                         ("dups", [0, 1, 1] + list(range(2, 20)))):
        csv = os.path.join(tmp_path, f"{name}.csv")
        with open(csv, "w") as fh:
            fh.write("n,log_sup_abs_derivative\n")
            fh.writelines(f"{n},{float(n * n)}\n" for n in orders)
        code, rep = run(["fit", "--data", csv], tmp_path, f"{name}.json")
        assert code == 1 and rep is None, name


def test_report_determinism_byte_identical(tmp_path):
    a = os.path.join(tmp_path, "a.json")
    b = os.path.join(tmp_path, "b.json")
    args = ["seq-audit", "--tau", "0.5", "--sigma", "2.5", "--pmax", "60"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()

    c = os.path.join(tmp_path, "c.json")
    d = os.path.join(tmp_path, "d.json")
    args = ["fdb", "--f", "exp", "--g", "sin", "--alpha", "3", "--at", "0.4",
            "--check-jet"]
    assert main(args + ["--out", c]) == 0
    assert main(args + ["--out", d]) == 0
    assert open(c, "rb").read() == open(d, "rb").read()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("header,body", [
    ("GRIDFIELD 1 1 16 -1.0 nan real", "0.5 " * 16),
    ("GRIDFIELD 1 1 16 inf 0.125 real", "0.5 " * 16),
    ("GRIDFIELD 1 1 16 -1.0 0.125 real", "0.5 " * 15 + "nan"),
    ("GRIDFIELD 1 1 16 -1.0 0.125 complex", "0.5,0 " * 15 + "1.0"),
    ("GRIDFIELD 1 1 16 -1.0 0.125 complex", "0.5,0 " * 15 + "1,2,3"),
], ids=["nan_spacing", "inf_origin", "nan_sample", "complex_one_part", "complex_three_parts"])
def test_gridfield_bad_numbers_and_tokens_exit_1(tmp_path, capsys, header, body):
    path = os.path.join(tmp_path, "bad.gf")
    with open(path, "w") as fh:
        fh.write(f"{header}\n{body}\n")
    code, rep = run(["wf-scan", "--field", path, "--points", "0", "--tau", "1", "--sigma", "2",
                     "--threads", "1"], tmp_path)
    assert code == 1 and rep is None
    assert path in _one_line_error(capsys)


def test_wf_scan_ximin_zero_exits_1(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    capsys.readouterr()
    code, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                     "--tau", "1", "--sigma", "2", "--ximin", "0", "--threads", "1"], tmp_path)
    assert code == 1 and rep is None
    assert "xi_min must be positive" in _one_line_error(capsys)


@pytest.mark.parametrize("threads", ["0", "-2", "2", "4"])
def test_wf_scan_threads_other_than_one_exit_1(tmp_path, capsys, threads):
    # the scan runs on one thread; --threads stays for scripts that pass 1
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    capsys.readouterr()
    code, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                     "--tau", "1", "--sigma", "2", "--threads", threads], tmp_path)
    assert code == 1 and rep is None
    assert f"argument --threads: invalid choice: {threads}" in _one_line_error(capsys)


def test_wf_scan_threads_1_is_the_scan_without_the_flag(tmp_path):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    scan = ["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0;0.5",
            "--tau", "1", "--sigma", "2"]
    a, b = os.path.join(tmp_path, "a.json"), os.path.join(tmp_path, "b.json")
    assert main(scan + ["--threads", "1", "--out", a]) == 0
    assert main(scan + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_wf_scan_ximin_in_dc_band_rejects_the_scan(tmp_path, capsys):
    # one line for the whole scan, not one error verdict per direction
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    capsys.readouterr()
    csv = os.path.join(tmp_path, "profiles.csv")
    code, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                     "--tau", "1", "--sigma", "2", "--ximin", "0.5", "--csv", csv], tmp_path)
    assert code == 1 and rep is None and not os.path.exists(csv)
    assert "DC leakage band" in _one_line_error(capsys)


@pytest.mark.parametrize("flags,message", [
    (["--rp", "0.3", "--rs", "0.2"], "r_plateau must be smaller than r_support"),
    (["--nmax", "3"], "N_max = 3 leaves fewer than 6 usable values"),
    (["--nmax", "-2"], "N_max = -2 leaves fewer than 6 usable values"),
    # a profile holds N_max + 1 values per cone bin: 10^7 would ask for gigabytes
    (["--nmax", "1001"], "N_max = 1001 exceeds 1000"),
    (["--nmax", "10000000"], "N_max = 10000000 exceeds 1000"),
    (["--tiny"], "transition band under-resolved (< 8 cells)"),
    # an identically zero cutoff: every verdict would read regular
    (["--rp=-0.5", "--rs", "0.3"], "r_plateau = -0.5 is negative"),
])
def test_wf_scan_faults_of_every_point_reject_the_scan(tmp_path, capsys, flags, message):
    # exit 1 with one line and no report or CSV, not one error verdict per
    # (point, direction)
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    field = os.path.join(outdir, "kink.gf")
    if flags == ["--tiny"]:  # 16 samples, spacing 0.125: the default band is 1.8 cells
        field = os.path.join(tmp_path, "tiny.gf")
        x = np.linspace(-1.0, 0.875, 16)
        write_gridfield(GridField(1, (16,), (-1.0,), (0.125,), np.abs(x)), field)
        flags = ["--ximin", "2.5"]
    capsys.readouterr()
    csv = os.path.join(tmp_path, "profiles.csv")
    code, rep = run(["wf-scan", "--field", field, "--points", "0;0.5", "--tau", "1",
                     "--sigma", "2", "--csv", csv] + flags, tmp_path)
    assert code == 1 and rep is None and not os.path.exists(csv)
    assert message in _one_line_error(capsys)


def test_parametrix_rejects_a_negative_plateau_radius_before_the_sums(
    tmp_path, capsys, monkeypatch
):
    # the zero cutoff would give residual 0 and a passing audit
    def no_sums(*args, **kwargs):
        raise AssertionError("neumann_sums ran on a cutoff with a negative plateau radius")

    monkeypatch.setattr("gevreykit.parametrix.neumann_sums", no_sums)
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "4",
                     "--phi", "0,-0.5,0.3"], tmp_path)
    assert code == 1 and rep is None
    assert "r_plateau = -0.5 is negative" in _one_line_error(capsys)


def _nested(depth):
    return "compose(sin," * depth + "poly:0.5,1" + ")" * depth


def test_specs_nested_past_the_cap_exit_1(tmp_path, capsys):
    # the spec walks recurse once per level: 1,000 levels ended in a
    # RecursionError traceback
    fdb = ["fdb", "--f", "exp", "--alpha", "3", "--at", "0.1", "--check-jet", "--g"]
    code, rep = run(fdb + [_nested(MAX_SPEC_DEPTH)], tmp_path)
    assert code == 0 and rep["result"]["jet_agrees"]
    for depth in (MAX_SPEC_DEPTH + 1, 1000):
        code, rep = run(fdb + [_nested(depth)], tmp_path, f"{depth}.json")
        assert code == 1 and rep is None
        err = _one_line_error(capsys)
        assert err == f"gevrey: spec nests deeper than {MAX_SPEC_DEPTH} levels\n"


def test_operators_past_the_term_cap_exit_1(tmp_path, capsys):
    # the terms of one power fold into a chain of sums, one level per term:
    # 1,500 terms ended in a RecursionError traceback
    def op(terms):
        return "D^2 + " + " + ".join(["poly:1"] * (terms - 1))

    pm = ["parametrix", "--N", "2", "--grid", "64", "--beta-max", "1", "--op"]
    code, rep = run(pm + [op(MAX_OPERATOR_TERMS)], tmp_path)
    assert code == 0 and rep["result"]["residual_ok"]
    for terms in (MAX_OPERATOR_TERMS + 1, 1500):
        code, rep = run(pm + [op(terms)], tmp_path, f"{terms}.json")
        assert code == 1 and rep is None
        assert _one_line_error(capsys) == (
            f"gevrey: operator has {terms} terms, more than {MAX_OPERATOR_TERMS}\n"
        )
    # a nested spec at the cap inside an operator stays in reach of the walks
    code, rep = run(pm + [f"D^2 + {_nested(MAX_SPEC_DEPTH)}*D + poly:1"], tmp_path, "deep.json")
    assert code == 0


def test_wf_scan_zero_plateau_radius_stays_allowed(tmp_path):
    # phi = 1 at the center alone is still a cutoff: the kink stays singular
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    code, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                     "--tau", "1", "--sigma", "2", "--rp", "0", "--rs", "0.3",
                     "--threads", "1"], tmp_path)
    assert code == 0
    verdicts = rep["result"]["verdicts"]
    assert len(verdicts) == 2 and not any(v["regular"] for v in verdicts)


def test_parametrix_zero_plateau_radius_stays_allowed(tmp_path):
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "4",
                     "--phi", "0,0,0.3"], tmp_path)
    assert code == 0 and rep["result"]["audit_ok"] is True


@pytest.mark.parametrize("tau,sigma,named", [
    ("0", "2", "tau = 0.0"),
    ("-1", "2", "tau = -1.0"),
    ("1", "0", "sigma = 0.0"),
    ("1", "0.5", "sigma = 0.5"),
    ("1", "-2", "sigma = -2.0"),
])
def test_parameters_naming_no_class_exit_1(tmp_path, capsys, tau, sigma, named):
    # tau > 0 and sigma >= 1, for the scan and the parametrix audit alike
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    commands = [
        ["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0"],
        ["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "3", "--grid", "64",
         "--beta-max", "2"],
    ]
    for argv in commands:
        capsys.readouterr()
        code, rep = run(argv + [f"--tau={tau}", f"--sigma={sigma}"], tmp_path)
        assert code == 1 and rep is None
        assert named in _one_line_error(capsys)


def test_sigma_one_stays_allowed(tmp_path):
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    code, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                     "--tau", "1", "--sigma", "1", "--rp", "0.16", "--rs", "0.4",
                     "--threads", "1"], tmp_path)
    assert code == 0 and len(rep["result"]["verdicts"]) == 2


@pytest.mark.parametrize("tau,code", [("1", 1), ("0.5", 1), ("1.5", 0)])
def test_quasianalytic_class_needs_an_explicit_support(tmp_path, capsys, tau, code):
    # at sigma = 1, tau <= 1 the cutoff-radius series diverges
    outdir = os.path.join(tmp_path, "fields")
    main(["catalog", "--out", outdir])
    got, rep = run(["wf-scan", "--field", os.path.join(outdir, "kink.gf"), "--points", "0",
                    "--tau", tau, "--sigma", "1", "--threads", "1"], tmp_path)
    assert got == code and (rep is None) == (code == 1)
    if code == 1:
        assert "quasianalytic" in _one_line_error(capsys)


def test_parametrix_rejects_a_bad_class_before_the_sums(tmp_path, capsys, monkeypatch):
    def no_sums(*args, **kwargs):
        raise AssertionError("neumann_sums ran before --tau was checked")

    monkeypatch.setattr("gevreykit.parametrix.neumann_sums", no_sums)
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "8",
                     "--tau=-1"], tmp_path)
    assert code == 1 and rep is None
    assert "tau = -1.0 names no class" in _one_line_error(capsys)


@pytest.mark.parametrize("beta_max", ["-1", "7"])
def test_parametrix_rejects_beta_max_outside_0_to_6_before_the_sums(
    tmp_path, capsys, monkeypatch, beta_max
):
    def no_sums(*args, **kwargs):
        raise AssertionError("neumann_sums ran before --beta-max was checked")

    monkeypatch.setattr("gevreykit.parametrix.neumann_sums", no_sums)
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "12",
                     f"--beta-max={beta_max}"], tmp_path)
    assert code == 1 and rep is None
    assert f"beta_max = {beta_max} lies outside 0..6" in _one_line_error(capsys)


@pytest.mark.parametrize("grid", ["0", "-16", "3", "15", "1025", "2000"])
def test_parametrix_rejects_a_grid_outside_16_to_1024_before_the_sums(
    tmp_path, capsys, monkeypatch, grid
):
    def no_sums(*args, **kwargs):
        raise AssertionError("neumann_sums ran before --grid was checked")

    monkeypatch.setattr("gevreykit.parametrix.neumann_sums", no_sums)
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", f"--grid={grid}"], tmp_path)
    assert code == 1 and rep is None
    assert f"--grid {grid} lies outside 16..1024" in _one_line_error(capsys)


@pytest.mark.parametrize("flags, message", [
    (["--grid", "16"],
     "--phi '0,0.15,0.4' on --grid 16: transition band under-resolved (< 8 cells)"),
    (["--phi", "0.9,0.1,0.3"],
     "--phi '0.9,0.1,0.3' on --grid 256: cutoff support leaves the grid"),
])
def test_parametrix_names_phi_and_grid_for_a_cutoff_fault_before_the_sums(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_sums(*args, **kwargs):
        raise AssertionError("neumann_sums ran before the cutoff was checked")

    monkeypatch.setattr("gevreykit.parametrix.neumann_sums", no_sums)
    code, rep = run(["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "3",
                     "--beta-max", "1"] + flags, tmp_path)
    assert code == 1 and rep is None
    assert f"gevrey: {message}\n" == _one_line_error(capsys)


@pytest.mark.parametrize("row", ["1", "1,2,3", "a,1", "1,x"])
def test_fit_names_the_file_line_and_row_of_a_malformed_row(tmp_path, capsys, row):
    csv = os.path.join(tmp_path, "rows.csv")
    with open(csv, "w") as fh:
        fh.write(f"n,log_sup_abs_derivative\n0,1.0\n{row}\n2,3.0\n")
    code, rep = run(["fit", "--data", csv], tmp_path)
    assert code == 1 and rep is None
    assert f"gevrey: {csv} line 3: row {row!r} is not n,value\n" == _one_line_error(capsys)


@pytest.mark.parametrize("pair", ["compose", "sum", "prod"])
@pytest.mark.parametrize("literal, message", [
    ("poly:1,1/0", "zero denominator in '1/0'"),
    ("poly:1,nan", "number must be finite, got 'nan'"),
    ("poly:1,1e999", "number must be finite, got '1e999'"),
    ("mvpoly:1,0:2;0,-1:3", "exponents must be non-negative integers, got '0,-1'"),
])
def test_a_bad_token_inside_a_pair_spec_is_named(tmp_path, capsys, pair, literal, message):
    # the literal's own fault, not a failure to find the pair's comma
    for spec in (f"{pair}(sin,{literal})", f"{pair}({literal},sin)"):
        code, rep = run(["fdb", "--f", spec, "--g", "sin", "--alpha", "1", "--at", "0.5"],
                        tmp_path)
        assert code == 1 and rep is None
        assert f"gevrey: {message}\n" == _one_line_error(capsys), spec


@pytest.mark.parametrize("literal", ["poly:", "poly:1,,2", "poly:1, ,2", "mvpoly:", "mvpoly:2",
                                     "mvpoly:1,:2", "mvpoly:1:", "mvpoly:1:1;"])
def test_an_empty_number_names_its_literal(tmp_path, capsys, literal):
    code, rep = run(["fdb", "--f", literal, "--g", "sin", "--alpha", "1", "--at", "0.5"], tmp_path)
    assert code == 1 and rep is None
    assert f"gevrey: empty number in {literal!r}\n" == _one_line_error(capsys)


def test_decomp_rejects_a_negative_entry(tmp_path, capsys):
    for census in (["--census"], []):
        code, rep = run(["decomp", "--alpha=-1,3"] + census, tmp_path)
        assert code == 1 and rep is None
        assert "alpha (-1, 3) has a negative entry" in _one_line_error(capsys)


def test_readme_cli_examples_parse():
    # every `gevrey ...` line of README's CLI block, continuations joined
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [ln.strip() for ln in block.replace("\\\n", " ").splitlines()]
    examples = [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("gevrey ")]
    assert len(examples) >= 8
    for argv in examples:
        _parser().parse_args(argv)


def test_readme_names_every_required_report_key():
    # README's CLI section has one `- `command`: ...` line listing its keys
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = {ln.split("`")[1]: ln for ln in section.splitlines() if ln.startswith("- `")}
    for command, keys in _RESULT_KEYS.items():
        missing = [key for key in keys if f"`{key}`" not in lines.get(command, "")]
        assert not missing, (command, missing)


def test_seq_audit_at_a_large_sigma_exits_0(tmp_path):
    # the Stirling comparison stops at [p^sigma] = 64^3 instead of caching 64^10 entries
    code, rep = run(["seq-audit", "--tau", "1", "--sigma", "10", "--pmax", "64"], tmp_path)
    assert code == 0
    assert [p for p, _ in rep["result"]["stirling_ratio_log_residuals"]] == [1, 2, 3]


def test_signed_exponent_coefficient_exits_0(tmp_path):
    code, rep = run(["parametrix", "--op", "D^2 + poly:1e+5", "--N", "3", "--grid", "64",
                     "--beta-max", "1"], tmp_path)
    assert code == 0 and rep["config"]["parameters"]["op"] == "D^2 + poly:1e+5"


def test_out_of_range_results_exit_1(tmp_path, capsys):
    # a NaN residual is not JSON: exit 1, no report
    code, rep = run(["parametrix", "--op", "D^2 + compose(exp,poly:0,900)*D", "--N", "2",
                     "--grid", "64", "--beta-max", "1"], tmp_path, "pm.json")
    assert code == 1 and rep is None
    assert "report holds NaN or Infinity" in _one_line_error(capsys)


@pytest.mark.parametrize("values, log_a", [
    ([1.0, 2.0, 6.5, 30, 170, 1200, 9000, 80000, 800000], pytest.approx(82758.888, abs=1e-3)),
    ([800], 800.0),
    ([710], 710.0),
], ids=["least_squares", "degenerate", "degenerate_710"])
def test_fit_reports_a_constant_past_float_range_as_its_log(tmp_path, values, log_a):
    # exp(log_A_hat) would overflow a double; its log is what the report carries
    csv = os.path.join(tmp_path, "big.csv")
    with open(csv, "w") as fh:
        fh.writelines(f"{n},{v}\n" for n, v in enumerate(values))
    code, rep = run(["fit", "--data", csv, "--sigma-grid", "1.5,2"], tmp_path)
    assert code == 0
    assert rep["result"]["log_A_hat"] == log_a
    validate_report(rep)


@pytest.mark.parametrize("sigma, code", [("285.2", 0), ("285.4", 1), ("286", 1)])
def test_fit_rejects_a_grid_sigma_whose_design_leaves_float_range(tmp_path, sigma, code):
    # at n_max 12, 12^sigma ln 12 overflows from sigma 285.4 and 12^sigma from
    # 285.7; LAPACK writes to fd 1, so only a fresh interpreter shows its lines
    csv = os.path.join(os.path.dirname(__file__), "data", "growth_small.csv")
    src = os.path.dirname(os.path.dirname(gevreykit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gevreykit.cli", "fit", "--data", csv, "--sigma-grid", sigma,
         "--out", os.path.join(tmp_path, "fit.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    if code:
        assert proc.stderr.splitlines() == [
            f"gevrey: sigma = {float(sigma)!r}: n^sigma ln n leaves float range for some "
            "n <= n_max = 12"
        ]
    else:
        assert proc.stderr == ""


def test_fit_reports_the_zero_function_with_a_null_log_a(tmp_path):
    # ln 0 has no JSON form: the one null a fitted log takes
    csv = os.path.join(tmp_path, "zero.csv")
    with open(csv, "w") as fh:
        fh.writelines(f"{n},-inf\n" for n in range(9))
    code, rep = run(["fit", "--data", csv], tmp_path)
    assert code == 0
    assert rep["result"]["log_A_hat"] is None and rep["result"]["log_h_hat"] == 0.0
    validate_report(rep)


def test_seq_audit_reports_a_constant_past_float_range_as_its_log(tmp_path):
    # C_m2bar = 2^{tau 2^(sigma-1)} leaves float range at tau 520, sigma 2
    code, rep = run(["seq-audit", "--tau", "520", "--sigma", "2", "--pmax", "40"], tmp_path)
    assert code == 0
    log_c = rep["result"]["fitted_log_C_m2bar"]
    assert log_c == pytest.approx(520 * 2.0 * math.log(2.0), rel=1e-12)
    assert "null" not in json.dumps(rep)
    validate_report(rep)


@pytest.mark.parametrize("tau", ["1e306", "1e307", "1e308"])
def test_seq_audit_overflow_names_no_tau_the_user_never_gave(tmp_path, capsys, tau):
    # the primed index tau 2^(sigma-1) overflows at 1e308; ln M overflows at all three
    code, rep = run(["seq-audit", "--tau", tau, "--sigma", "2"], tmp_path)
    assert code == 1 and rep is None
    assert _one_line_error(capsys) == "gevrey: report holds NaN or Infinity; not written\n"


def test_index_past_float_range_exits_1_naming_sigma(tmp_path, capsys):
    # n^200 leaves float range from n = 35: one line, no report
    for args in (["seq-audit", "--pmax", "40"], ["lemma23", "--kmax", "40"]):
        code, rep = run(args + ["--tau", "1", "--sigma", "200"], tmp_path)
        assert code == 1 and rep is None
        err = _one_line_error(capsys)
        assert err.startswith("gevrey: sigma = 200.0: ") and "n = 35" in err, err
    for args in (["seq-audit", "--pmax", "3"], ["lemma23", "--kmax", "12"]):
        code, rep = run(args + ["--tau", "1", "--sigma", "200"], tmp_path)
        assert code == 0 and rep is not None


def test_overflow_prints_one_line_in_a_fresh_process(tmp_path):
    # pytest captures numpy's RuntimeWarnings; a fresh interpreter shows what a user sees
    src = os.path.dirname(os.path.dirname(gevreykit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gevreykit.cli", "parametrix", "--op",
         "D^2 + compose(exp,poly:0,900)*D", "--N", "2", "--grid", "64", "--beta-max", "1",
         "--out", os.path.join(tmp_path, "pm.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gevrey: "), proc.stderr
    assert not os.path.exists(os.path.join(tmp_path, "pm.json"))


@st.composite
def _gridfield_text(draw):
    # near-valid 1-D files: header fields and sample tokens drawn from good and bad ones
    num = st.sampled_from(["0.5", "-1", "0.125", "nan", "inf", "1e999", "x"])
    kind = draw(st.sampled_from(["real", "complex", "int"]))
    header = ["GRIDFIELD", "1", "1", draw(st.sampled_from(["16", "18", "8", "x"])),
              draw(num), draw(num), kind]
    if draw(st.booleans()):
        del header[draw(st.integers(0, len(header) - 1))]
    value = st.sampled_from(["0", "1.5", "-2e3", "nan", "inf", "x"])
    pair = st.tuples(value, value).map(",".join)
    odd = st.sampled_from(["1", "1,2", "1,2,3", ",", "1,", ""])
    token = st.one_of(pair if kind == "complex" else value, odd)
    body = draw(st.lists(token, min_size=14, max_size=18))
    return " ".join(header) + "\n" + " ".join(body) + "\n"


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_gridfield_text(), st.text(max_size=60)))
def test_read_gridfield_returns_a_field_or_raises_value_error(tmp_path, text):
    path = os.path.join(tmp_path, "fuzz.gf")
    with open(path, "w") as fh:
        fh.write(text)
    try:  # the reader's contract: a field or a ValueError, nothing else
        read_gridfield(path)
    except ValueError:
        pass


_SAMPLE_TOKENS = ["1_0", "+.5", "1.", "0x10", "nan", "-nan", "inf", "-Infinity", "1e400", "4e-400",
                  "\u0661\u0662", "\uff11.5", "\u00b2", "\u22121", "1__0", "_1", "1e", ".", "0b1", "2.5"]


@pytest.mark.parametrize("token", _SAMPLE_TOKENS)
def test_read_gridfield_parses_samples_as_float_does(tmp_path, token):
    # every sample token passes or fails as Python's float() takes it;
    # a parsed non-finite value is then rejected as such
    path = os.path.join(tmp_path, "t.gf")
    with open(path, "w") as fh:
        fh.write("GRIDFIELD 1 1 16 0.0 0.125 real\n" + "0.5 " * 15 + token + "\n")
    try:
        want = float(token)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_gridfield(path)
        assert str(got.value) == str(exc)
        return
    if not math.isfinite(want):
        with pytest.raises(ValueError, match="non-finite origin, spacing or sample"):
            read_gridfield(path)
        return
    samples = read_gridfield(path).samples
    assert samples[-1] == want and (samples[:-1] == 0.5).all()


def test_read_gridfield_names_a_comma_in_a_real_sample(tmp_path):
    path = os.path.join(tmp_path, "t.gf")
    with open(path, "w") as fh:
        fh.write("GRIDFIELD 1 1 16 0.0 0.125 real\n" + "0.5 " * 15 + "1,2\n")
    with pytest.raises(ValueError, match=r"malformed real sample in .*t\.gf \(complex samples are re,im\)"):
        read_gridfield(path)


@pytest.mark.parametrize("body", [
    "0.5 " * 8 + "\n" + "0.5 " * 7 + "1,2\n",  # on a later line
    "0.5 " * 16 + ",\n",  # a token of its own, past the sample count
    "0.5\n" * 15 + "1,",  # in the last token, with no newline after it
], ids=["later-line", "own-token", "last-token"])
def test_read_gridfield_names_a_comma_on_any_line_of_a_real_body(tmp_path, body):
    path = os.path.join(tmp_path, "t.gf")
    with open(path, "w") as fh:
        fh.write("GRIDFIELD 1 1 16 0.0 0.125 real\n" + body)
    with pytest.raises(ValueError, match=r"malformed real sample in .*t\.gf \(complex samples are re,im\)"):
        read_gridfield(path)


def _assert_clean_exit(args, out):
    if os.path.exists(out):
        os.remove(out)
    code = main(args + ["--out", out])
    assert code in (0, 1, 2), code
    if os.path.exists(out):
        text = open(out).read()
        assert "NaN" not in text and "Infinity" not in text, text
        json.loads(text)


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-inf", "1e999", "x", "", "1,2", " 3 "]),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_CSV_VALUES, max_size=14), st.lists(st.text(max_size=8), max_size=2))
def test_fit_on_fuzzed_growth_csv_exits_cleanly(tmp_path, values, junk):
    # mostly well-formed rows 0..n_max (so the fit runs), plus stray lines
    csv = os.path.join(tmp_path, "growth.csv")
    with open(csv, "w") as fh:
        fh.write("n,log_sup_abs_derivative\n")
        fh.writelines(f"{n},{v}\n" for n, v in enumerate(values))
        fh.writelines(f"{line}\n" for line in junk)
    _assert_clean_exit(["fit", "--data", csv], os.path.join(tmp_path, "fit.json"))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(16, 48),
    spacing=st.one_of(st.floats(1e-3, 1.0), st.floats()),
    samples=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
    ximin=st.sampled_from([[], ["--ximin", "0"], ["--ximin", "3"], ["--ximin", "1e6"]]),
)
def test_wf_scan_on_fuzzed_tiny_field_exits_cleanly(tmp_path, n, spacing, samples, ximin):
    path = os.path.join(tmp_path, "tiny.gf")
    vals = [samples[i % len(samples)] for i in range(n)]
    with open(path, "w") as fh:
        fh.write(f"GRIDFIELD 1 1 {n} 0.0 {spacing!r} real\n")
        fh.write(" ".join(repr(v) for v in vals) + "\n")
    _assert_clean_exit(["wf-scan", "--field", path, "--points", "grid", "--tau", "1",
                        "--sigma", "2", "--threads", "1", "--nmax", "10", "--rp",
                        repr(2 * spacing), "--rs", repr(12 * spacing)] + ximin,
                       os.path.join(tmp_path, "wf.json"))


# a list value that begins with a minus sign, in its own token: the README's
# negative half-line, a negative point and a bare "-.5"
_MINUS_VALUES = [
    (["parametrix", "--op", "D^2 + sin*D + poly:1", "--N", "3", "--grid", "64",
      "--beta-max", "1"], "--cone", "-1,0.4,6"),
    (["fdb", "--f", "exp", "--g", "mvpoly:1,0:1;0,1:2", "--alpha", "1,1"], "--at", "-0.5,0.2"),
    (["fdb", "--f", "sin", "--g", "poly:0,1", "--alpha", "3"], "--at", "-.5"),
    (["wf-scan", "--field", "step2d.gf", "--dirs", "4", "--nmax", "10", "--tau", "1",
      "--sigma", "2"], "--points", "-0.3,0;0.6,0"),
]


@pytest.mark.parametrize("argv,flag,value", _MINUS_VALUES)
def test_a_value_beginning_with_a_minus_sign_reads_as_its_flag_equals_form(
    tmp_path, argv, flag, value
):
    if "step2d.gf" in argv:
        field = os.path.join(tmp_path, "step2d.gf")
        write_gridfield(catalog_field("step2d"), field)
        argv = [field if a == "step2d.gf" else a for a in argv]
    outs = [os.path.join(tmp_path, name) for name in ("split.json", "joined.json")]
    assert main(argv + [flag, value, "--out", outs[0]]) == 0
    assert main(argv + [f"{flag}={value}", "--out", outs[1]]) == 0
    with open(outs[0], "rb") as split, open(outs[1], "rb") as joined:
        assert split.read() == joined.read()


# Known defects (ROADMAP): each test states the right answer, which the
# program does not give yet; strict, so a mend fails here until unmarked


def _wf_scan_at_zero(tmp_path, field, tau, sigma):
    path = os.path.join(tmp_path, "field.gf")
    write_gridfield(field, path)
    return run(["wf-scan", "--field", path, "--points", "0", "--dirs", "2",
                "--tau", str(tau), "--sigma", str(sigma)], tmp_path)


@pytest.mark.xfail(strict=True, reason="ROADMAP Direction 5: the cutoff alone misses the "
                   "order (0.5, 1.5) requires, so the smooth bump reads singular")
def test_the_bump_is_not_singular_at_a_small_class(tmp_path):
    code, rep = _wf_scan_at_zero(tmp_path, catalog_field("bump"), 0.5, 1.5)
    assert code == 0
    assert not any(v["regular"] is False and v["error"] is None for v in rep["result"]["verdicts"])


@pytest.mark.xfail(strict=True, reason="ROADMAP Direction 13: at (1, 2) the required order "
                   "lies below the cutoff's own, so x|x| reads regular at its kink")
def test_x_abs_x_is_not_regular_at_zero(tmp_path):
    kink = catalog_field("kink")
    x = kink.axis_coords(0)
    code, rep = _wf_scan_at_zero(tmp_path, kink.like(x * np.abs(x)), 1, 2)
    assert code == 0
    assert not any(v["regular"] is True for v in rep["result"]["verdicts"])


@pytest.mark.xfail(strict=True, reason="ROADMAP Directions 5, 13 and 9: A_hat overflows "
                   "at sigma 2.4, and under it the kink passes the order test")
def test_the_kink_at_sigma_2_4_exits_0_and_is_not_regular(tmp_path):
    code, rep = _wf_scan_at_zero(tmp_path, catalog_field("kink"), 1, 2.4)
    assert code == 0
    assert not any(v["regular"] is True for v in rep["result"]["verdicts"])


@pytest.mark.xfail(strict=True, reason="ROADMAP Direction 4: P_m = (x - 0.17) xi^2 vanishes "
                   "inside phi's support but on no grid point")
def test_a_principal_coefficient_vanishing_inside_the_support_exits_1(tmp_path):
    code, _ = run(["parametrix", "--op", "poly:-0.17,1*D^2", "--N", "3", "--grid", "64",
                   "--beta-max", "1"], tmp_path)
    assert code == 1
