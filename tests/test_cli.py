import json
import math
import os

import numpy as np

from gevreykit.cli import main
from gevreykit.schemas import validate_report
from gevreykit.wavefront import read_gridfield


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
    assert rep["result"]["C"] >= 1.0
    validate_report(rep)


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
