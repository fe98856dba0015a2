"""Seeded inputs of the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every file a job of that
workload reads; the program under test sees only these files, never the
seed.  The same (workload, seed) always yields byte-identical files, and
``digest`` hashes them so that a result can name the exact inputs it saw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

# fdb_derivative's enforced order limits per dimension
ORDER_LIMITS = {1: 8, 2: 8, 3: 6}
CHAIN_ITEMS = 1000
# one item in twenty nests its outer spec 12-14 deep; the counts are fixed
# so that the slow tail (and hence item_p99_ms) has the same shape per seed
DEEP_DEPTHS = (12,) * 17 + (13,) * 17 + (14,) * 16

# the acceptance grid of (tau, sigma): one tau is drawn per sigma, so that
# every seed audits sigma = 3, whose Stirling check grows the log-factorial
# cache to [64^3]! and adds about 10 MB to the peak
SEQ_TAUS = (0.25, 0.5, 1.0, 2.0)
SEQ_SIGMAS = (1.25, 1.5, 2.0, 3.0)
SAMPLE_POINTS = 81  # on [-1, 1]

# wf-scan lattice: 20 jittered points clear of the interface by more than
# the default cutoff support radius (0.28 at tau = 1, sigma = 2), plus five
# interface points on x = 0 and one grid cell to either side
LATTICE_X = (-0.6, -0.42, 0.42, 0.6)
LATTICE_Y = (-0.6, -0.3, 0.0, 0.3, 0.6)


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"gevrey-bench:{workload}:{seed}")


def _num(x: float) -> str:
    return repr(round(x, 3))


# ---------------------------------------------------------------------------
# parametrix


def _parametrix(rng: random.Random, out_dir: str) -> None:
    c0a = _num(rng.uniform(0.5, 2.0))
    a = _num(rng.uniform(2.0, 3.0))
    c0b = _num(rng.uniform(0.5, 2.0))
    audits = [
        {"name": "a", "op": f"D^2 + sin*D + poly:{c0a}", "N": 7},
        # x-dependent principal part a + sin(x), elliptic for a >= 2
        {"name": "b", "op": f"poly:{a}*D^2 + sin*D^2 + cos*D + poly:{c0b}", "N": 4},
    ]
    _write(out_dir, "audits.json", json.dumps(audits, indent=1) + "\n")


# ---------------------------------------------------------------------------
# wf-scan


def _wf_scan(rng: random.Random, out_dir: str) -> None:
    from gevreykit.cli import main
    from gevreykit.schemas import validate_report

    fields = os.path.join(out_dir, "fields")
    # the report names out_dir, so it is validated and dropped: only the
    # fields are inputs
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        if main(["catalog", "--out", fields]):
            raise RuntimeError("gevrey catalog failed during set-up")
    validate_report(json.loads(report.getvalue()))
    with open(os.path.join(fields, "step2d.gf")) as fh:
        header = fh.readline().split()
    cell = float(header[6])  # GRIDFIELD 1 2 n1,n2 ox oy sx sy kind

    points = []
    for x in LATTICE_X:
        for y in LATTICE_Y:
            points.append((round(x + rng.uniform(-0.04, 0.04), 4),
                           round(y + rng.uniform(-0.05, 0.05), 4)))
    rows = rng.sample(LATTICE_Y, 5)
    for x, y in zip((0.0, 0.0, 0.0, -cell, cell), rows):
        points.append((x, round(y + rng.uniform(-0.05, 0.05), 4)))
    off_grid = []
    for _ in range(rng.choice((1, 2))):
        edge = round(rng.choice((-1, 1)) * rng.uniform(0.85, 0.9), 4)
        inner = round(rng.uniform(-0.5, 0.5), 4)
        off_grid.append((edge, inner) if rng.random() < 0.5 else (inner, edge))
    points += off_grid
    rng.shuffle(points)
    _write(out_dir, "points.txt", "".join(f"{x!r},{y!r}\n" for x, y in points))
    expect = {"cell": cell, "off_grid": off_grid, "n_points": len(points)}
    _write(out_dir, "expect.json", json.dumps(expect, indent=1) + "\n")


# ---------------------------------------------------------------------------
# chain-rule


def _frac(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
        if v or not nonzero:
            return v


def _poly(rng: random.Random, degree: int, exact: bool) -> str:
    coeffs = [_frac(rng) if exact else round(rng.uniform(-1, 1), 3) for _ in range(degree)]
    coeffs.append(_frac(rng, True) if exact else round(rng.choice((-1, 1)) * rng.uniform(0.2, 1), 3))
    return "poly:" + ",".join(str(c) for c in coeffs)


def _mvpoly(rng: random.Random, d: int, exact: bool) -> str:
    max_deg = 3 if d == 2 else 2
    terms = {}
    for _ in range(rng.randint(2, 4)):
        expo = [0] * d
        for _ in range(rng.randint(1, max_deg)):
            expo[rng.randrange(d)] += 1
        terms[tuple(expo)] = _frac(rng, True) if exact else round(rng.uniform(-1, 1), 3) or 0.5
    return "mvpoly:" + ";".join(
        ",".join(map(str, e)) + ":" + str(c) for e, c in sorted(terms.items())
    )


def _inner(rng: random.Random, d: int, exact: bool) -> str:
    if exact:
        if d == 1:
            return rng.choice((
                lambda: _poly(rng, rng.randint(1, 3), True),
                lambda: f"prod({_poly(rng, 1, True)},{_poly(rng, 2, True)})",
                lambda: f"compose({_poly(rng, 2, True)},{_poly(rng, 2, True)})",
            ))()
        return rng.choice((
            lambda: _mvpoly(rng, d, True),
            lambda: f"sum({_mvpoly(rng, d, True)},compose({_poly(rng, 2, True)},{_mvpoly(rng, d, True)}))",
        ))()
    if d == 1:
        return rng.choice((
            lambda: f"sum(sin,{_poly(rng, 1, False)})",
            lambda: f"prod(cos,{_poly(rng, 1, False)})",
            lambda: f"compose(exp,{_poly(rng, 1, False)})",
            lambda: f"compose(sin,{_poly(rng, 2, False)})",
        ))()
    return rng.choice((
        lambda: f"compose(sin,{_mvpoly(rng, d, False)})",
        lambda: f"sum({_mvpoly(rng, d, False)},compose(cos,{_mvpoly(rng, d, False)}))",
        lambda: f"compose(exp,{_mvpoly(rng, d, False)})",
    ))()


def _deep(rng: random.Random, depth: int) -> str:
    # a fixed text length per depth, so that the parse cost, which grows
    # with the length times 2^depth, does not vary with the seed
    text = f"poly:{rng.uniform(0.1, 0.9):.3f},{rng.uniform(0.2, 0.9):.3f}"
    for _ in range(depth):
        text = f"compose({rng.choice(('sin', 'cos'))},{text})"
    return text


def _alpha(rng: random.Random, d: int, n: int) -> list[int]:
    alpha = [0] * d
    for _ in range(n):
        alpha[rng.randrange(d)] += 1
    return alpha


def _chain_item(rng: random.Random, exact: bool, d: int, n: int, depth: int = 0) -> dict:
    from gevreykit.funcspec import parse_spec

    if exact:
        at = tuple(_frac(rng) for _ in range(d))
    else:
        at = tuple(round(rng.uniform(-0.8, 0.8), 3) for _ in range(d))
    g = _inner(rng, d, exact)
    g_at = parse_spec(g).eval(*at)
    if depth:
        f = _deep(rng, depth)
    elif exact:
        f = rng.choice(("poly", "poly", "recip", "exp", "sin", "cos"))
        if f in ("exp", "sin", "cos"):
            # exact only at base 0: shift g so that g(at) = 0
            zero = "poly:" if d == 1 else "mvpoly:" + ",".join("0" * d) + ":"
            g = f"sum({g},{zero}{-g_at})"
        elif f == "recip" and g_at == 0:
            f = "poly"
        if f == "poly":
            f = _poly(rng, rng.randint(2, 4), True)
    else:
        f = rng.choice(("exp", "sin", "cos", "recip", "poly", "compose"))
        if f == "recip" and abs(g_at) < 0.5:
            f = "exp"
        if f == "poly":
            f = _poly(rng, rng.randint(2, 4), False)
        elif f == "compose":
            f = f"compose(sin,{_poly(rng, 1, False)})"
    return {
        "exact": exact,
        "depth": depth,
        "f": f,
        "g": g,
        "alpha": _alpha(rng, d, n),
        "at": [str(c) if exact else repr(c) for c in at],
    }


def _chain_rule(rng: random.Random, out_dir: str) -> None:
    strata = [(d, n) for d in (1, 2, 3) for n in range(1, ORDER_LIMITS[d] + 1)]
    plain = CHAIN_ITEMS - len(DEEP_DEPTHS)
    items = []
    for i in range(plain):
        d, n = strata[(i // 2) % len(strata)]
        items.append(_chain_item(rng, i % 2 == 0, d, n))
    for depth in DEEP_DEPTHS:
        items.append(_chain_item(rng, False, 1, rng.randint(1, ORDER_LIMITS[1]), depth))
    rng.shuffle(items)
    _write(out_dir, "items.json", "[\n" + ",\n".join(json.dumps(i) for i in items) + "\n]\n")


# ---------------------------------------------------------------------------
# seq-fit


def _seq_fit(rng: random.Random, out_dir: str) -> None:
    import numpy as np

    draws = []
    pairs = [(rng.choice(SEQ_TAUS), sigma) for sigma in SEQ_SIGMAS]
    rng.shuffle(pairs)
    for i, (tau, sigma) in enumerate(pairs):
        draws.append({
            "tau": tau,
            "sigma": sigma,
            "h": round(rng.uniform(0.5, 2.0), 3),
            "A": round(rng.uniform(0.5, 2.0), 3),
        })
        # smooth samples whose centered differences stay above roundoff
        # through order 8 (fit_regularity needs n_max >= 8)
        x = np.linspace(-1.0, 1.0, SAMPLE_POINTS)
        w1, w2, ph = rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0), rng.uniform(0, 3.0)
        y = np.sin(w1 * x + ph) + 0.5 * np.cos(w2 * x)
        _write(out_dir, f"samples-{i}.txt", "".join(f"{v!r}\n" for v in y.tolist()))
    _write(out_dir, "draws.json", json.dumps(draws, indent=1) + "\n")


_GENERATORS = {
    "parametrix": _parametrix,
    "wf-scan": _wf_scan,
    "chain-rule": _chain_rule,
    "seq-fit": _seq_fit,
}


def generate(workload: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _GENERATORS[workload](_rng(workload, seed), out_dir)


def digest(out_dir: str) -> str:
    """sha256 over every generated file, by relative path."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
