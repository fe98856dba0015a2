"""One job per workload, and the checks on its outputs.

``run(workload, inputs_dir, job_dir, clock)`` performs one job and returns
its operations, timed with ``clock``; ``verify`` then reads what the job
wrote and returns named pass/fail checks.  Every gevreykit function is
looked up through its module at call time, so that the traced run's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np
from gevreykit import cli, faadibruno, funcspec, jets, multiindex, regularity, schemas

from inputs import SAMPLE_POINTS

# a program defect the benchmark counts but does not treat as a broken
# benchmark: with the sampled cutoff, audit (a) at N = 7 reports
# residual_ok false (see README.md, "Known defect")
KNOWN_DEFECTS = {"parametrix.a.residual_ok"}

PARAMETRIX_ARGS = ["--grid", "256", "--beta-max", "4", "--cone", "1,0.4,6", "--phi", "0,0.15,0.4"]
WF_DIRS = 16
SIGMA_GRID = "1.25,1.5,2,2.5,3"


class Job:
    """Operations of one job: (name, seconds, succeeded), plus outputs."""

    def __init__(self, job_dir: str, clock) -> None:
        self.dir = job_dir
        self.clock = clock
        self.ops: list[tuple[str, float, bool]] = []
        self.reports: dict[str, str] = {}  # op name -> report path
        self.files: list[str] = []  # further outputs under the determinism gate
        self.values: list = []  # chain-rule item results

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def gevrey(self, name: str, argv: list[str], out: str | None = None) -> None:
        t0 = self.clock()
        try:
            ok = cli.main(argv) == 0
        except Exception as exc:  # a traceback is a failed operation
            ok = False
            print(f"# {name}: {type(exc).__name__}: {exc}", flush=True)
        self.ops.append((name, self.clock() - t0, ok))
        if out:
            self.reports[name] = out

    def timed(self, name: str, fn) -> None:
        t0 = self.clock()
        try:
            fn()
            ok = True
        except Exception as exc:
            ok = False
            print(f"# {name}: {type(exc).__name__}: {exc}", flush=True)
        self.ops.append((name, self.clock() - t0, ok))


# ---------------------------------------------------------------------------
# jobs


def _parametrix(inputs: str, job: Job) -> None:
    with open(os.path.join(inputs, "audits.json")) as fh:
        audits = json.load(fh)
    for a in audits:
        out = job.path(f"parametrix-{a['name']}.json")
        job.gevrey(
            f"parametrix.{a['name']}",
            ["parametrix", "--op", a["op"], "--N", str(a["N"]), *PARAMETRIX_ARGS, "--out", out],
            out,
        )


def _wf_scan(inputs: str, job: Job) -> None:
    # `gevrey catalog` runs in set-up: it writes the input fields, and its
    # few milliseconds of file output would be the noisiest item of a job
    fields = os.path.join(inputs, "fields")
    out, csv = job.path("wf-scan.json"), job.path("profiles.csv")
    job.gevrey(
        "wf-scan",
        ["wf-scan", "--field", os.path.join(fields, "step2d.gf"),
         "--points", os.path.join(inputs, "points.txt"), "--dirs", str(WF_DIRS),
         "--tau", "1", "--sigma", "2", "--threads", "1", "--csv", csv, "--out", out],
        out,
    )
    job.files.append(csv)


def _chain_item(item: dict) -> tuple:
    alpha = tuple(item["alpha"])
    if item["exact"]:
        # exact input cannot pass through `gevrey fdb`, which reads --at as floats
        f = funcspec.parse_spec(item["f"])
        g = funcspec.parse_spec(item["g"])
        at = tuple(Fraction(c) for c in item["at"])
        got = faadibruno.fdb_derivative(f, g, alpha, at)
        g_jet = jets.jet_of(g, at, sum(alpha))
        f_jet = jets.jet_of(f, (g_jet.value,), sum(alpha))
        want = jets.jet_partial(jets.jet_compose(f_jet, g_jet), alpha)
        result = ("exact", got, want)
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fdb", "--f", item["f"], "--g", item["g"],
                             "--alpha", ",".join(map(str, alpha)),
                             "--at=" + ",".join(item["at"]), "--check-jet"])
        result = ("cli", code, buf.getvalue())
    return result + (multiindex.decomposition_census(alpha),)


def _chain_rule(inputs: str, job: Job) -> None:
    with open(os.path.join(inputs, "items.json")) as fh:
        items = json.load(fh)
    for i, item in enumerate(items):
        t0 = job.clock()
        try:
            value = _chain_item(item)
            ok = value[0] == "exact" or value[1] == 0
        except Exception as exc:
            value, ok = None, False
            print(f"# item {i}: {type(exc).__name__}: {exc}", flush=True)
        job.ops.append((f"item.{i}", job.clock() - t0, ok))
        job.values.append(value)


def _write_growth(path: str, entries) -> None:
    with open(path, "w") as fh:
        fh.write("n,log_sup\n")
        fh.writelines(f"{n},{v!r}\n" for n, v in enumerate(entries))


def _seq_fit(inputs: str, job: Job) -> None:
    with open(os.path.join(inputs, "draws.json")) as fh:
        draws = json.load(fh)
    spacing = 2.0 / (SAMPLE_POINTS - 1)
    for i, d in enumerate(draws):
        tau, sigma = repr(d["tau"]), repr(d["sigma"])
        for cmd, extra in (("seq-audit", ["--pmax", "2000"]), ("lemma23", ["--kmax", "20"])):
            out = job.path(f"{cmd}-{i}.json")
            job.gevrey(f"{cmd}.{i}", [cmd, "--tau", tau, "--sigma", sigma, *extra, "--out", out], out)

        measured, synthetic = job.path(f"growth-{i}.csv"), job.path(f"synthetic-{i}.csv")

        def measure():
            samples = np.loadtxt(os.path.join(inputs, f"samples-{i}.txt"))
            data = regularity.measure_derivative_growth(samples, spacing, 16)
            _write_growth(measured, data.entries)

        def synthesize():
            data = regularity.synthetic_growth(d["tau"], d["sigma"], d["h"], d["A"], 24)
            _write_growth(synthetic, data.entries)

        job.timed(f"growth.{i}", measure)
        job.timed(f"synthetic.{i}", synthesize)
        for name, csv in (("fit-measured", measured), ("fit-synthetic", synthetic)):
            out = job.path(f"{name}-{i}.json")
            job.gevrey(f"{name}.{i}", ["fit", "--data", csv, "--sigma-grid", SIGMA_GRID, "--out", out], out)


_JOBS = {
    "parametrix": _parametrix,
    "wf-scan": _wf_scan,
    "chain-rule": _chain_rule,
    "seq-fit": _seq_fit,
}


def run(workload: str, inputs: str, job_dir: str, clock) -> Job:
    # a fresh directory, so that no check can read an earlier job's output
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    job = Job(job_dir, clock)
    _JOBS[workload](inputs, job)
    return job


# ---------------------------------------------------------------------------
# checks


def _load_reports(job: Job, checks: dict[str, bool]) -> dict[str, dict]:
    """Every report parses and validates against its schema."""
    docs = {}
    for name, path in job.reports.items():
        try:
            with open(path) as fh:
                doc = json.load(fh)
            schemas.validate_report(doc)
            docs[name] = doc
            checks[f"{name}.schema"] = True
        except Exception:
            checks[f"{name}.schema"] = False
    return docs


def _verify_parametrix(job, docs, inputs, checks, notes) -> None:
    for name, doc in docs.items():
        r = doc["result"]
        for key in ("word_count_matches_recurrence", "audit_ok", "residual_ok"):
            checks[f"{name}.{key}"] = r.get(key) is True
        notes[f"{name}.max_residual"] = r.get("max_residual")


def _verify_wf_scan(job, docs, inputs, checks, notes) -> None:
    with open(os.path.join(inputs, "expect.json")) as fh:
        expect = json.load(fh)
    if "wf-scan" not in docs or not os.path.exists(job.path("profiles.csv")):
        return
    doc = docs["wf-scan"]
    verdicts = doc["result"]["verdicts"]
    cell = expect["cell"]
    off_grid = {tuple(p) for p in expect["off_grid"]}
    fan = 2 * math.pi / WF_DIRS
    singular = [v for v in verdicts if not v["regular"] and v["error"] is None]

    def near_e1(v):
        ang = math.atan2(v["direction"][1], v["direction"][0])
        return min(abs(math.remainder(ang - t, 2 * math.pi)) for t in (0.0, math.pi)) <= fan + 1e-9

    checks["wf-scan.verdict_count"] = len(verdicts) == expect["n_points"] * WF_DIRS
    checks["wf-scan.singular_found"] = bool(singular)
    checks["wf-scan.singular_within_one_cell_of_interface"] = all(
        abs(v["point"][0]) <= cell + 1e-12 for v in singular)
    checks["wf-scan.singular_within_one_fan_step_of_e1"] = all(near_e1(v) for v in singular)
    errors = [tuple(v["point"]) for v in verdicts if v["error"] is not None]
    checks["wf-scan.errors_exactly_off_grid"] = (
        set(errors) == off_grid and len(errors) == len(off_grid) * WF_DIRS)
    with open(job.path("profiles.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    n_max = doc["config"]["parameters"]["N_max"]
    checks["wf-scan.csv_rows"] = rows == (expect["n_points"] - len(off_grid)) * WF_DIRS * (n_max + 1)


def _verify_chain_rule(job, docs, inputs, checks, notes) -> None:
    for i, value in enumerate(job.values):
        if value is None:
            checks[f"item.{i}.agree"] = False
            continue
        count, bound, ok = value[-1]
        checks[f"item.{i}.census"] = ok is True and count <= bound
        if value[0] == "exact":
            _, got, want, _ = value
            checks[f"item.{i}.agree"] = isinstance(got, (int, Fraction)) and got == want
            continue
        _, code, text, _ = value
        try:
            doc = json.loads(text)
            schemas.validate_report(doc)
            checks[f"item.{i}.schema"] = True
        except Exception:
            checks[f"item.{i}.schema"] = False
            continue
        r = doc["result"]
        rel = abs(r["value"] - r["jet_value"]) / max(abs(r["jet_value"]), 1.0)
        checks[f"item.{i}.agree"] = r["jet_agrees"] is True and rel <= 1e-9


def _verify_seq_fit(job, docs, inputs, checks, notes) -> None:
    with open(os.path.join(inputs, "draws.json")) as fh:
        draws = json.load(fh)
    for i, d in enumerate(draws):
        audit = docs.get(f"seq-audit.{i}")
        if audit:
            checks[f"seq-audit.{i}.m1_ok"] = audit["result"]["m1_ok"] is True
            checks[f"seq-audit.{i}.ratio_bound_ok"] = audit["result"]["ratio_bound_ok"] is True
        fit = docs.get(f"fit-synthetic.{i}")
        if fit:
            r = fit["result"]
            checks[f"fit-synthetic.{i}.sigma_exact"] = r["sigma_hat"] == d["sigma"]
            checks[f"fit-synthetic.{i}.tau_within_10pct"] = abs(r["tau_hat"] - d["tau"]) <= 0.1 * d["tau"]


_VERIFY = {
    "parametrix": _verify_parametrix,
    "wf-scan": _verify_wf_scan,
    "chain-rule": _verify_chain_rule,
    "seq-fit": _verify_seq_fit,
}


def verify(workload: str, job: Job, inputs: str) -> tuple[dict[str, bool], dict, str, int]:
    """(checks, notes, digest of every output, report bytes) of one job."""
    checks: dict[str, bool] = {}
    notes: dict = {}
    for name, _, ok in job.ops:
        checks[f"{name}.ok"] = ok
    docs = _load_reports(job, checks)
    _VERIFY[workload](job, docs, inputs, checks, notes)

    h = hashlib.sha256()
    report_bytes = 0
    for path in [job.reports[k] for k in sorted(job.reports)] + job.files:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:  # its operation failed; counted there
            data = b""
        h.update(path.encode() + b"\0" + data)
        if path not in job.files:
            report_bytes += len(data)
    for value in job.values:
        text = repr(value).encode()
        h.update(text)
        if value and value[0] == "cli":
            report_bytes += len(value[2].encode())
    return checks, notes, h.hexdigest(), report_bytes
