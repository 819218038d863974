"""The degenerate DeDonder-Weyl scalar field on n base dimensions.

Coordinates ``x1..xn, u, rho1..rhon`` (chart dimension 2n + 1) carry the
closed degree-(n + 1) form

    omega = drho1 ^ du ^ dx2 ^ ... ^ dxn - rho1 drho1 ^ dx1 ^ ... ^ dxn

with kernel frame ``{x1: 1, u: rho1}, e_rho2, ..., e_rhon`` (n fields) and
complement ``e_x2, ..., e_xn, e_u, e_rho1`` (n + 1 fields).  For n = 2 this is
``scalar_field_2d`` with ``x1 -> x, x2 -> t, rho1 -> rho_x, rho2 -> rho_t``.

The closed forms below come from the construction, not from the program:
the thickening adds one fiber coordinate per transversal n-subset of the
coframe, C(2n + 1, n) - C(n + 1, n) of them, and the pullback of omega to
the thickened chart has a kernel spanned by the fiber directions plus the
n kernel directions of omega.
"""

from __future__ import annotations

import re
from math import comb

N2_RENAME = {"x1": "x", "x2": "t", "rho1": "rho_x", "rho2": "rho_t"}


def coordinates(n: int) -> list:
    return [f"x{i}" for i in range(1, n + 1)] + ["u"] + [f"rho{i}" for i in range(1, n + 1)]


def spec_dict(n: int, name: str = None) -> dict:
    """The DW form of base dimension n as a spec-file dictionary."""
    if n < 2:
        raise ValueError("the DW family starts at n = 2 (degree 3)")
    xs = [f"x{i}" for i in range(1, n + 1)]
    return {
        "name": name or f"dw_n{n}",
        "coordinates": coordinates(n),
        "form": {
            "degree": n + 1,
            "terms": [
                {"indices": ["rho1", "u"] + xs[1:], "coeff": "1"},
                {"indices": ["rho1"] + xs, "coeff": "-rho1"},
            ],
        },
        "frame": {
            "vertical": [{"x1": "1", "u": "rho1"}]
            + [{f"rho{i}": "1"} for i in range(2, n + 1)],
            "horizontal": [{x: "1"} for x in xs[1:]] + [{"u": "1"}, {"rho1": "1"}],
        },
        "fibration": {"base": xs},
    }


def chart_dim(n: int) -> int:
    return 2 * n + 1


def fiber_count(n: int) -> int:
    return comb(2 * n + 1, n) - comb(n + 1, n)


def big_chart_dim(n: int) -> int:
    return chart_dim(n) + fiber_count(n)


def pulled_kernel_dim(n: int) -> int:
    """Kernel dimension of tau^* omega on the thickened chart."""
    return fiber_count(n) + n


def renamed(data, rename: dict):
    """Copy of a spec dictionary with coordinate names replaced."""
    if isinstance(data, dict):
        return {rename.get(k, k): renamed(v, rename) for k, v in data.items()}
    if isinstance(data, list):
        return [renamed(v, rename) for v in data]
    if isinstance(data, str):
        return re.sub(r"[A-Za-z_][A-Za-z0-9_]*", lambda m: rename.get(m.group(), m.group()), data)
    return data
