"""Independent recomputations that the benchmark checks outputs against.

Nothing in this module imports liouville.  The closed forms for the shell
weights w and the values u of the six radial families are restated here
from the paper's recipes, and the layer operators from their definitions,
so a fault in the package's build or tree operators cannot hide itself.
Callers pick the precision (the benchmark uses twice the working one).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


def mpf_of(x) -> mp.mpf:
    """Exact-as-possible mpf of a Fraction, int or decimal string."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _poly_exponents(p: Fraction, q: Fraction, regime: str):
    """(weight power, log power, u power) of families I and III."""
    if regime == "I":
        d = p + q - 1
        return (p + 1) / d, 1 / d, (2 - q) / d
    d = q - 1
    return 1 / d, 1 / d, (2 - q) / d


class ClosedForm:
    """Shell weights and values of one regime, by layer index n.

    `spec` is the "spec" object of a construct report (or a dict of the
    same shape): regime, p, q, N, horizon and the parameters eps, lam, n0
    and delta as the report prints them.
    """

    def __init__(self, spec: dict):
        self.regime = spec["regime"]
        self.p, self.q = Fraction(spec["p"]), Fraction(spec["q"])
        self.N = int(spec["N"])
        self.n0 = int(spec["n0"]) if spec.get("n0") is not None else 2
        self.two_sided = self.regime == "V2"
        r = self.regime
        if r in ("I", "III"):
            lw, lb, ls = (mpf_of(x) for x in _poly_exponents(self.p, self.q, r))
            eps, delta = mpf_of(Fraction(spec["eps"])), mp.mpf(spec["delta"])
            one = 0 if r == "I" else 1
            self._w = lambda m: mp.power(m, lw) * mp.power(mp.log(m), lb + eps)
            self._u = lambda m: delta / (mp.power(m, ls) * mp.power(mp.log(m), lb)) + one
        elif r == "II":
            eps = mpf_of(Fraction(spec["eps"]))
            self._w = lambda m: m * mp.power(mp.log(m), 1 + eps)
            self._u = lambda m: mp.power(mp.log(m), -eps / 2) + 1
        elif r == "IV":
            lam, delta = mp.mpf(spec["lam"]), mp.mpf(spec["delta"])
            self._w = lambda m: lam * mp.exp(lam * m)
            self._u = lambda m: delta / m + delta
        elif r == "V1":
            lam = mp.mpf(spec["lam"])
            self.n0 = 0
            self._w = lambda m: lam * mp.exp(lam * m)
            self._u = lambda m: mp.exp(-lam * m / 4)
        elif r == "V2":
            lam = mp.mpf(spec["lam"])
            self.n0 = 0
            self._w = lambda m: lam * mp.exp(lam * m)
            self._u = lambda m: mp.exp(-(lam - 1) * m)
        else:
            raise ValueError(f"unknown regime {r!r}")

    def w(self, n: int) -> mp.mpf:
        """Normalized weight of the shell joining layers n and n + 1."""
        return self._w(mp.mpf(n + self.n0))

    def u(self, n: int) -> mp.mpf:
        return self._u(mp.mpf(n + self.n0))


def layer_ops(N: int, two_sided: bool, w, u, n: int):
    """(Laplacian, squared gradient) at layer n from weights w(k) and values u(k)."""
    un = u(n)
    if n == 0 and not two_sided:
        d = u(1) - un
        return d, d * d / 2
    if n == 0:
        a, b = (N - 1) * w(0), w(-1)
    else:
        a, b = w(n), w(n - 1)
    up, dn = u(n + 1) - un, u(n - 1) - un
    return (a * up + b * dn) / (a + b), (a * up * up + b * dn * dn) / (2 * (a + b))


def margin(lap, grad_sq, u_value, p: Fraction, q: Fraction):
    """(F, dominant) with F = lap + u^p |grad u|^q and dominant = max(|lap|, term)."""
    term = mp.power(u_value, mpf_of(p))
    if q != 0:
        term *= mp.power(grad_sq, mpf_of(q) / 2)
    return lap + term, max(abs(lap), term)


def closed_form_margin(cf: ClosedForm, n: int):
    lap, g2 = layer_ops(cf.N, cf.two_sided, cf.w, cf.u, n)
    return margin(lap, g2, cf.u(n), cf.p, cf.q)


def rel_diff(a, b) -> mp.mpf:
    a, b = mp.mpf(a), mp.mpf(b)
    scale = max(abs(a), abs(b))
    return mp.mpf(0) if scale == 0 else abs(a - b) / scale


def nash_williams_float(profile, n_min: int, n_max: int) -> float:
    """sum of n / profile(n) in float64, compensated by math.fsum."""
    return math.fsum(n / profile(n) for n in range(n_min, n_max + 1))
