"""Golden values of both chain-rule routes on exact input.

``data/chain_exact.json`` holds about thirty exact items drawn like the
``chain-rule`` benchmark's (poly, recip, exp, sin or cos outside; poly,
prod, compose or mvpoly inside; d = 1..3; Fraction points) and three
mixed ones (``sin`` outside an exact g at a nonzero Fraction value, so a
float outer jet meets an exact inner one).  Each item stores the
``repr`` of ``fdb_derivative``'s and ``jet_chain_partial``'s values as
the code before the integer-numerator jet route computed them, so the
comparison covers every value's type and digits.  The file is written
once by running this module (``python tests/test_chain_exact.py``); it
must not be rewritten from code whose values it is meant to check.
"""

import json
import os
import random
from fractions import Fraction

import pytest

from gevreykit import jets
from gevreykit.faadibruno import fdb_derivative
from gevreykit.funcspec import parse_spec

DATA = os.path.join(os.path.dirname(__file__), "data", "chain_exact.json")
_ORDERS = {1: 6, 2: 5, 3: 4}


def _frac(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
        if v or not nonzero:
            return v


def _poly(rng, degree):
    coeffs = [_frac(rng) for _ in range(degree)] + [_frac(rng, True)]
    return "poly:" + ",".join(map(str, coeffs))


def _mvpoly(rng, d):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        expo = [0] * d
        for _ in range(rng.randint(1, 3 if d == 2 else 2)):
            expo[rng.randrange(d)] += 1
        terms[tuple(expo)] = _frac(rng, True)
    return "mvpoly:" + ";".join(",".join(map(str, e)) + ":" + str(c) for e, c in sorted(terms.items()))


def _inner(rng, d):
    if d == 1:
        return rng.choice((
            lambda: _poly(rng, rng.randint(1, 3)),
            lambda: f"prod({_poly(rng, 1)},{_poly(rng, 2)})",
            lambda: f"compose({_poly(rng, 2)},{_poly(rng, 2)})",
        ))()
    return rng.choice((
        lambda: _mvpoly(rng, d),
        lambda: f"sum({_mvpoly(rng, d)},compose({_poly(rng, 2)},{_mvpoly(rng, d)}))",
    ))()


def _shifted(g, d, by):
    zero = "poly:" if d == 1 else "mvpoly:" + ",".join("0" * d) + ":"
    return f"sum({g},{zero}{by})"


def _item(rng, d, mixed):
    at = tuple(_frac(rng) for _ in range(d))
    g = _inner(rng, d)
    g_at = parse_spec(g).eval(*at)
    if mixed:
        # a float sin jet at a nonzero exact value, over an exact g jet
        f = "sin"
        if g_at == 0:
            g = _shifted(g, d, 1)
    else:
        f = rng.choice(("poly", "poly", "recip", "exp", "sin", "cos"))
        if f in ("exp", "sin", "cos"):
            # exact only at base 0
            g = _shifted(g, d, -g_at)
        elif f == "recip" and g_at == 0:
            f = "poly"
        if f == "poly":
            f = _poly(rng, rng.randint(2, 4))
    alpha = [0] * d
    for _ in range(rng.randint(1, _ORDERS[d])):
        alpha[rng.randrange(d)] += 1
    return {"f": f, "g": g, "alpha": alpha, "at": [str(c) for c in at], "mixed": mixed}


def _values(item):
    f, g = parse_spec(item["f"]), parse_spec(item["g"])
    alpha, at = tuple(item["alpha"]), tuple(map(Fraction, item["at"]))
    return repr(fdb_derivative(f, g, alpha, at)), repr(jets.jet_chain_partial(f, g, alpha, at))


def _write_golden(path, seed=38):
    rng = random.Random(seed)
    items = [_item(rng, 1 + i % 3, False) for i in range(30)]
    items += [_item(rng, d, True) for d in (1, 2, 3)]
    for item in items:
        item["fdb"], item["jet"] = _values(item)
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(item) for item in items) + "\n]\n")


# run as a script, the module writes the file before it reads it below
if __name__ == "__main__":
    _write_golden(DATA)

with open(DATA) as _fh:
    _ITEMS = json.load(_fh)


def test_the_golden_file_holds_exact_and_mixed_items():
    assert len(_ITEMS) == 33 and sum(item["mixed"] for item in _ITEMS) == 3
    assert {len(item["alpha"]) for item in _ITEMS} == {1, 2, 3}
    for item in _ITEMS:
        exact = "Fraction" in item["jet"] or item["jet"].lstrip("-").isdigit()
        assert exact != item["mixed"], item


@pytest.mark.parametrize("item", _ITEMS, ids=[f"item{i}" for i in range(len(_ITEMS))])
def test_both_routes_give_the_golden_values(item):
    jets._memo.clear()
    assert _values(item) == (item["fdb"], item["jet"])

