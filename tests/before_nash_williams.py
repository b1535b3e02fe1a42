"""The Nash-Williams partial sum as it read before it ran on raw mpf values.

`nash_williams_partial` here is the package function verbatim from when
its loop added mpf objects with `+=` and `/`.  `test_reference.py` holds
the raw-value loop to it, exactly.
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

from liouville.errors import InputError
from liouville.numerics import to_mpf


def nash_williams_partial(
    volume_profile: Callable[[int], object], n_max: int, n_min: int = 1
) -> mp.mpf:
    """Partial sum of n / mu(B(o, n)) for n in [n_min, n_max].

    Divergence of the full series certifies parabolicity: every nonnegative
    supersolution of the Laplace inequality is constant.
    """
    if n_min < 1 or n_max < n_min:
        raise InputError("need 1 <= n_min <= n_max")
    total = mp.mpf(0)
    for n in range(n_min, n_max + 1):
        vol = to_mpf(volume_profile(n))
        if not 0 < vol < mp.inf:
            raise InputError(f"volume profile must be positive, got {vol} at n={n}")
        total += n / vol
    return total
