"""The volume band as it read before its float64 screen.

`volume_band` here is the package function as it was written when the
growth law was evaluated in mpf at every n of the window.
`test_reference.py` holds the screened band to it, exactly.
"""

from __future__ import annotations

from typing import Callable

from liouville.counterexamples import BuiltCounterexample, VolumeBand
from liouville.errors import InputError
from liouville.numerics import to_mpf


def volume_band(built: BuiltCounterexample, target: Callable[[int], object],
                n_lo: int, n_hi: int) -> VolumeBand:
    """Min and max of mu(B(o, n)) / target(n) over [n_lo, n_hi].

    A bounded band certifies two-sided comparability at desk scale; a band
    that keeps widening as n_hi grows is how a wrong growth law shows up.
    """
    if n_lo < 2:
        raise InputError("volume band needs n_lo >= 2 (targets may involve ln n)")
    if n_hi < n_lo:
        raise InputError("need n_hi >= n_lo")
    vols = built.tree.ball_volumes(n_hi)
    ratio_min = ratio_max = None
    for n in range(n_lo, n_hi + 1):
        t = to_mpf(target(n))
        if not t > 0:
            raise InputError(f"target must be positive, got {t} at n={n}")
        ratio = vols[n] / t
        if ratio_min is None or ratio < ratio_min:
            ratio_min = ratio
        if ratio_max is None or ratio > ratio_max:
            ratio_max = ratio
    return VolumeBand(ratio_min=ratio_min, ratio_max=ratio_max)
