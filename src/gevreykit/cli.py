"""gevrey: command-line entry point.

Commands: seq-audit, decomp, fdb, lemma23, fit, wf-scan, parametrix,
catalog.  Reports are JSON with sorted keys and embed the full run
configuration, so identical configurations give byte-identical output.
A report's text is json.dumps(report, sort_keys=True, indent=2,
allow_nan=False) and a newline; a report holding NaN or Infinity is not
written.
Exit status: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .faadibruno import LEMMA23_KMAX_MAX, fdb_derivative, lemma23_constant_search
from .funcspec import parse_spec
from .jets import jet_chain_partial
from .multiindex import decomposition_census, enumerate_decompositions
from .regularity import DerivativeGrowthData, fit_regularity
from .schemas import schema_id
from .sequences import SEQ_AUDIT_PMAX_MAX, DefiningSequence, audit_sequence, check_class
from .wavefront import (
    MIN_GRID_SAMPLES,
    Cone,
    GridField,
    ScanParams,
    catalog_field,
    default_cutoff_radius,
    make_cutoff,
    read_gridfield,
    wf_scan,
    write_gridfield,
)

# documented numerical defaults
TOL_IDENTITY = 1e-8
# `decomp --out` holds every decomposition and the report text at once: peak
# RSS 107 MB at --alpha 40 (37,338 decompositions, a 12 MB report), 219 MB at 45
DECOMP_OUT_MAX = 40_000


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1,0.4,6 or -.5 is a value, not an option: no
        # option of the parser begins with a minus sign and a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse would exit(2); map to validation failure
        raise _CliError(message)


# json's C encoder writes no indentation; with sort_keys it walks a dict in
# the order json.dumps(sort_keys=True) does, so the first failure is the same
_compact = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False).encode
_LITERALS = {None: "null", True: "true", False: "false"}


def _report_text(obj, level: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False): the same
    text, or an exception of the same class, for every acyclic document.

    json's C encoder formats every scalar; this adds only the newlines and
    the indentation.  A list that is flat (numbers and literals only) or
    holds only non-empty flat rows is encoded compactly in one call and
    laid out by str.replace; any other list is written item by item.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and math.isfinite(obj):  # NaN and Infinity: json's ValueError below
        return float.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    pad = "\n" + "  " * (level + 1)
    end = pad[:-2]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(_key_text(k)) + ": " + _report_text(v, level + 1)
            for k, v in sorted(obj.items())
        ]
        return "{" + pad + ("," + pad).join(items) + end + "}"
    if not isinstance(obj, (list, tuple)):
        return _compact(obj)  # np.float64 as json writes it; np.int64 raises TypeError
    if not obj:
        return "[]"
    if not isinstance(obj[0], dict):
        text = _compact(obj)
        if '"' not in text and "{" not in text:
            opens = text.count("[")
            if opens == 1:
                return "[" + pad + text[1:-1].replace(",", "," + pad) + end + "]"
            # [[...],...,[...]]: every "[" after the second follows "],", so
            # no row nests a list and no scalar stands between the rows
            n = len(obj)
            if (text.startswith("[[") and opens == n + 1 and text.count("],[") == n - 1
                    and "[]" not in text):
                pad2 = pad + "  "
                body = text[2:-2].replace(",", "," + pad2)
                body = body.replace("]," + pad2 + "[", pad + "]," + pad + "[" + pad2)
                return "[" + pad + "[" + pad2 + body + pad + "]" + end + "]"
    return "[" + pad + ("," + pad).join(_report_text(v, level + 1) for v in obj) + end + "]"


def _key_text(key) -> str:
    """A dict key as json.dumps converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _compact(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _report(command: str, params: dict, result: dict, seed: int, out: str | None) -> None:
    doc = {
        "schema": schema_id(command),
        "config": {
            "command": command,
            "parameters": params,
            "seed": seed,
            "version": __version__,
        },
        "result": result,
    }
    try:
        text = _report_text(doc) + "\n"
    except ValueError:  # json's own message names only one float value
        raise ValueError("report holds NaN or Infinity; not written") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, flag: str, count: int = 0) -> tuple[float, ...]:
    """Comma-separated finite numbers; exactly `count` of them if count > 0."""
    try:
        vals = tuple(float(t) for t in text.split(","))
        ok = all(map(math.isfinite, vals)) and (not count or len(vals) == count)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{flag} needs {count or 'only'} finite numbers, got {text!r}")
    return vals


def finite(text: str) -> float:
    """Type of the float flags; argparse's error reads "invalid finite value"."""
    return _parse_floats(text, "", 1)[0]


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _echo(args, *names: str) -> dict:
    """The named flags as parsed, for a report's parameters."""
    return {name: getattr(args, name) for name in names}


# Each command returns (parameters, result) for its report, or None when
# it wrote its own output; main writes the report.


def _cmd_seq_audit(args) -> tuple[dict, dict]:
    rep = audit_sequence(DefiningSequence(args.tau, args.sigma), args.pmax)
    return _echo(args, "tau", "sigma", "pmax"), vars(rep)


def _cmd_decomp(args) -> tuple[dict, dict] | None:
    alpha = _parse_ints(args.alpha, "--alpha")
    params = {"alpha": list(alpha), "census": bool(args.census)}
    if args.census or args.out is not None:
        count, bound, ok = decomposition_census(alpha)
        if args.census:
            return params, {"alpha": list(alpha), "count": count, "bound": bound, "ok": ok}
        if count > DECOMP_OUT_MAX:
            raise ValueError(
                f"--alpha {args.alpha} has {count} decompositions, more than the {DECOMP_OUT_MAX} "
                "a report holds; count them with --census or stream them without --out"
            )
    decs = (
        {"parts": [list(p) for p in d.parts], "multiplicities": list(d.multiplicities)}
        for d in enumerate_decompositions(alpha)
    )
    if args.out is None:
        # streamed form: one JSON object per decomposition, written as found
        for d in decs:
            sys.stdout.write(json.dumps(d, sort_keys=True) + "\n")
        return None
    return params, {"alpha": list(alpha), "decompositions": list(decs)}


def _cmd_fdb(args) -> tuple[dict, dict]:
    f = parse_spec(args.f)
    g = parse_spec(args.g)
    alpha = _parse_ints(args.alpha, "--alpha")
    at = _parse_floats(args.at, "--at")
    value = fdb_derivative(f, g, alpha, at)
    result: dict = {"value": float(value)}
    if args.check_jet:
        oracle = jet_chain_partial(f, g, alpha, at)
        result["jet_value"] = float(oracle)
        denom = max(abs(float(oracle)), 1.0)
        result["jet_agrees"] = abs(float(value) - float(oracle)) / denom <= 1e-9
    params = {"f": args.f, "g": args.g, "alpha": list(alpha), "at": list(at),
              "check_jet": bool(args.check_jet)}
    return params, result


def _cmd_lemma23(args) -> tuple[dict, dict]:
    fit = lemma23_constant_search(DefiningSequence(args.tau, args.sigma), args.kmax)
    return _echo(args, "tau", "sigma", "kmax"), vars(fit)


def _cmd_fit(args) -> tuple[dict, dict]:
    rows: list[tuple[int, float]] = []
    with open(args.data) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            try:
                n_s, v_s = line.split(",")
                rows.append((int(n_s), float(v_s)))
            except ValueError:
                raise ValueError(f"{args.data} line {lineno}: row {line!r} is not n,value") from None
    rows.sort()
    if [n for n, _ in rows] != list(range(len(rows))):
        raise ValueError("growth data orders must be exactly 0..n_max, each once")
    data = DerivativeGrowthData(tuple(v for _, v in rows))
    grid = _parse_floats(args.sigma_grid, "--sigma-grid")
    fit = fit_regularity(data, list(grid))
    return {"data": args.data, "sigma_grid": list(grid)}, vars(fit)


def _parse_points(text: str, field: GridField) -> list[tuple[float, ...]]:
    if os.path.exists(text):
        pts = []
        with open(text) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    pts.append(_parse_floats(line, "--points"))
        return pts
    if text == "grid":
        # coarse interior lattice with room for the cutoff support
        pts = []
        for i in range(field.dim):
            lo = field.origin[i] + 0.3 * field.spacing[i] * field.sizes[i]
            hi = field.origin[i] + 0.7 * field.spacing[i] * field.sizes[i]
            pts.append(np.linspace(lo, hi, 3))
        mesh = np.meshgrid(*pts, indexing="ij")
        return [tuple(float(m[idx]) for m in mesh) for idx in np.ndindex(mesh[0].shape)]
    return [_parse_floats(chunk, "--points") for chunk in text.split(";")]


def _cmd_wf_scan(args) -> tuple[dict, dict]:
    field = read_gridfield(args.field)
    points = _parse_points(args.points, field)
    extent = min(
        field.spacing[i] * (field.sizes[i] - 1) for i in range(field.dim)
    )
    rs = args.rs if args.rs is not None else min(
        default_cutoff_radius(args.tau, args.sigma), 0.2 * extent
    )
    rp = args.rp if args.rp is not None else 0.4 * rs
    dxi = max(1.0 / (n * s) for n, s in zip(field.sizes, field.spacing))
    xi_min = args.ximin if args.ximin is not None else 5.0 * dxi
    scan = ScanParams(r_plateau=rp, r_support=rs, xi_min=xi_min, N_max=args.nmax)
    verdicts = wf_scan(field, points, args.dirs, args.tau, args.sigma, scan)
    if args.csv:
        # plot-ready decay profiles the scan measured: point; direction; N;
        # log_value, one block per verdict without error
        with open(args.csv, "w") as fh:
            fh.write("point;direction;N;log_value\n")
            for verdict in verdicts:
                if verdict.error is not None:
                    continue
                p_s = ",".join(repr(c) for c in verdict.point)
                d_s = ",".join(repr(c) for c in verdict.direction)
                for N, v in enumerate(verdict.profile.entries):
                    fh.write(f"{p_s};{d_s};{N};{v!r}\n")
    params = _echo(args, "field", "points", "dirs", "tau", "sigma")
    params |= {"r_plateau": rp, "r_support": rs, "xi_min": xi_min, "N_max": args.nmax}
    return params, {"verdicts": [v.to_dict() for v in verdicts]}


def _cmd_parametrix(args) -> tuple[dict, dict]:
    from .parametrix import (
        MAX_GRID_POINTS,
        bound_audit,
        build_reduction_operators,
        check_audit_order,
        neumann_sums,
        parse_operator,
        residual_identity_check,
        word_count_recurrence,
    )

    # a bad class, order, grid or cutoff fails before the Neumann sums, not in bound_audit
    check_class(args.tau, args.sigma)
    check_audit_order(args.beta_max)
    n = args.grid
    if not MIN_GRID_SAMPLES <= n <= MAX_GRID_POINTS:
        raise ValueError(f"--grid {n} lies outside {MIN_GRID_SAMPLES}..{MAX_GRID_POINTS}")
    direction, angle, xi_min = _parse_floats(args.cone, "--cone", 3)
    try:
        cone = Cone((direction,), angle, xi_min)
    except ValueError as exc:
        raise ValueError(f"--cone {args.cone!r}: {exc}") from None
    x0, rp, rs = _parse_floats(args.phi, "--phi", 3)
    try:
        phi = make_cutoff(x0, rp, rs, GridField(1, (n,), (-1.0,), (2.0 / n,), np.zeros(n)))
    except ValueError as exc:
        raise ValueError(f"--phi {args.phi!r} on --grid {n}: {exc}") from None
    P = parse_operator(args.op)
    system = build_reduction_operators(P)
    xi_lo = max(cone.xi_min, 4.0)
    xis = [float(v) for v in np.geomspace(xi_lo, max(16.0 * xi_lo, 64.0), 33)]
    if cone.direction[0] < 0:
        xis = [-v for v in xis]
    sums = neumann_sums(system, phi, args.N, xi_samples=xis)
    residual = residual_identity_check(sums)
    audit = bound_audit(sums, beta_max=args.beta_max, tau=args.tau, sigma=args.sigma)
    expected = sum(word_count_recurrence(P.order, v) for v in range(0, args.N - P.order + 1))
    result = {
        "max_residual": residual,
        "residual_ok": residual <= TOL_IDENTITY,
        "word_count_w": len(sums.w_words),
        "word_count_e": len(sums.e_words),
        "word_count_matches_recurrence": len(sums.w_words) == expected,
        "K1": sums.K1,
        "K2": sums.K2,
        "audit_ok": audit.ok(),
        "coefficient_log_fits": [
            [j, list(alpha), log_a, log_h]
            for (j, alpha), (log_a, log_h) in audit.coefficient_log_fits.items()
        ],
        "homogeneity_max_error": audit.homogeneity_max_error,
        "leibniz_terms_checked": audit.leibniz_terms_checked,
        "leibniz_violations": audit.leibniz_violations,
    }
    return _echo(args, "op", "N", "cone", "phi", "grid", "tau", "sigma", "beta_max"), result


def _cmd_catalog(args) -> tuple[dict, dict]:
    os.makedirs(args.out_dir, exist_ok=True)
    files = []
    for name in ("delta", "bump", "step2d", "kink"):
        gf = catalog_field(name)
        path = os.path.join(args.out_dir, f"{name}.gf")
        write_gridfield(gf, path)
        files.append(f"{name}.gf")
    return _echo(args, "out_dir"), {"files": files}


def build_parser() -> _Parser:
    p = _Parser(prog="gevrey", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    sub = p.add_subparsers(dest="command", required=True)

    sa = sub.add_parser("seq-audit", help="audit a defining sequence")
    sa.add_argument("--tau", type=finite, required=True)
    sa.add_argument("--sigma", type=finite, required=True)
    sa.add_argument("--pmax", type=int, default=40, help=f"3..{SEQ_AUDIT_PMAX_MAX}")

    dc = sub.add_parser("decomp", help="decompositions of a multi-index")
    dc.add_argument("--alpha", required=True, help="a1,..,ad")
    dc.add_argument("--census", action="store_true", help=f"count; --out lists <= {DECOMP_OUT_MAX}")

    fd = sub.add_parser("fdb", help="derivative of a composition")
    fd.add_argument("--f", required=True)
    fd.add_argument("--g", required=True)
    fd.add_argument("--alpha", required=True)
    fd.add_argument("--at", required=True)
    fd.add_argument("--check-jet", action="store_true")

    lm = sub.add_parser("lemma23", help="fit the splitting constant")
    lm.add_argument("--tau", type=finite, required=True)
    lm.add_argument("--sigma", type=finite, required=True)
    lm.add_argument("--kmax", type=int, default=12, help=f"2..{LEMMA23_KMAX_MAX}")

    ft = sub.add_parser("fit", help="fit regularity parameters from growth data")
    ft.add_argument("--data", required=True, help="csv rows n,log_sup_abs_derivative")
    ft.add_argument("--sigma-grid", default="1.5,2,2.5,3")

    wf = sub.add_parser("wf-scan", help="wave-front scan of a grid field")
    wf.add_argument("--field", required=True)
    wf.add_argument("--points", required=True, help="file | grid | x1,y1;x2,y2")
    wf.add_argument("--dirs", type=int, default=16)
    wf.add_argument("--tau", type=finite, required=True)
    wf.add_argument("--sigma", type=finite, required=True)
    wf.add_argument("--rp", type=finite, default=None)
    wf.add_argument("--rs", type=finite, default=None)
    wf.add_argument("--ximin", type=finite, default=None)
    wf.add_argument("--nmax", type=int, default=40)
    wf.add_argument("--csv", default=None, help="also write decay profiles as CSV")
    # the scan runs on one thread; the flag is kept for scripts that pass 1
    wf.add_argument("--threads", type=int, choices=(1,), default=1, help="1 only")

    pm = sub.add_parser("parametrix", help="build and audit Neumann sums")
    pm.add_argument("--op", required=True, help="e.g. 'D^2 + sin*D + poly:1'")
    pm.add_argument("--N", type=int, default=8)
    pm.add_argument("--cone", default="1,0.4,4", help="dir,angle,ximin")
    pm.add_argument("--phi", default="0,0.15,0.4", help="x0,rp,rs")
    pm.add_argument("--grid", type=int, default=256)
    pm.add_argument("--tau", type=finite, default=1.0)
    pm.add_argument("--sigma", type=finite, default=2.0)
    pm.add_argument("--beta-max", type=int, default=4)

    # every command above writes its report to --out, or to stdout without it;
    # catalog's --out is its field directory and its report goes to --report
    for command in sub.choices.values():
        command.add_argument("--out", default=None)

    ct = sub.add_parser("catalog", help="emit the built-in test fields")
    ct.add_argument("--out", dest="out_dir", required=True)
    ct.add_argument("--report", dest="out", metavar="REPORT", default=None)
    return p


_DISPATCH = {
    "seq-audit": _cmd_seq_audit,
    "decomp": _cmd_decomp,
    "fdb": _cmd_fdb,
    "lemma23": _cmd_lemma23,
    "fit": _cmd_fit,
    "wf-scan": _cmd_wf_scan,
    "parametrix": _cmd_parametrix,
    "catalog": _cmd_catalog,
}


@functools.cache
def _parser() -> _Parser:
    # built once per process: building it costs far more than a parse
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # overflow and invalid values surface as NaN/Infinity, which the
        # report writer refuses with one line; numpy's warnings would add more
        with np.errstate(all="ignore"):
            report = _DISPATCH[args.command](args)
            if report is not None:
                _report(args.command, *report, args.seed, args.out)
        return 0
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"gevrey: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"gevrey: i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
