"""Reference computations for the benchmark's output checks.

Nothing here imports ``narxcomp``: the models are read from the bundled
JSON files and evaluated term by term, the heater plant is written from
its published constants, and the heater's static inverse is the closed
form.  The checks compare the program's CSV output with these values.
None of this code is timed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

MODELS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "narxcomp", "models",
)


@dataclass(frozen=True)
class Model:
    """Terms as (coefficient, ((signal, lag, power), ...)) and the output order."""

    terms: tuple
    n_y: int


def load_model(name):
    with open(os.path.join(MODELS_DIR, name + ".json")) as fh:
        d = json.load(fh)
    terms = tuple(
        (
            float(t["coeff"]),
            tuple(
                (f["sig"], int(f["lag"]), int(f.get("pow", 1)))
                for f in t.get("factors", ())
            ),
        )
        for t in d["terms"]
    )
    return Model(terms=terms, n_y=int(d["n_y"]))


def perturbed(model, rel_std, z):
    """Coefficient i shifted by rel_std * |coefficient i| * z[i]."""
    return Model(
        terms=tuple(
            (c + rel_std * abs(c) * float(zi), factors)
            for (c, factors), zi in zip(model.terms, z)
        ),
        n_y=model.n_y,
    )


def predict(model, y, u, t, y_before, u_before):
    """Model output at time t.

    ``y[i]`` and ``u[i]`` are the samples at time i; before time 0 the
    output is ``y_before`` (most recent first) and the input is
    ``u_before``.  phi1(i) = u(i) - u(i-1) and phi2(i) = sign(phi1(i)),
    with sign(0) = 0.
    """
    total = 0.0
    for coeff, factors in model.terms:
        value = coeff
        for sig, lag, power in factors:
            i = t - lag
            if sig == "y":
                x = y[i] if i >= 0 else y_before[-i - 1]
            else:
                ui = u[i] if i >= 0 else u_before
                if sig == "u":
                    x = ui
                else:
                    d = ui - (u[i - 1] if i >= 1 else u_before)
                    x = d if sig == "phi1" else float((d > 0.0) - (d < 0.0))
            value *= x ** power
        total += value
    return total


def free_run(model, u, y_before):
    """Free-run output for the input series ``u``; earlier inputs equal u[0]."""
    u = [float(v) for v in u]
    y = []
    for t in range(len(u)):
        y.append(predict(model, y, u, t, y_before, u[0]))
    return y


def mape(target, actual):
    """100 * sum|target - actual| / (N * (max(target) - min(target)))."""
    err = math.fsum(abs(a - b) for a, b in zip(target, actual))
    return 100.0 * err / (len(target) * (max(target) - min(target)))


# ---------------------------------------------------------------------------
# Heater plant: v = P1 u^2 + P2 u into
# y(k) = B1 y(k-1) + B2 v(k-1) + B3 y(k-2) + B4 v(k-2), inputs clamped to [0, 1].

HEATER_P1 = 4.639331e-1
HEATER_P2 = 5.435865e-2
HEATER_B = (1.205445, 8.985133e-2, -3.0877507e-1, 9.462358e-3)


def _heater_v(u):
    u = min(max(float(u), 0.0), 1.0)
    return HEATER_P1 * u * u + HEATER_P2 * u


def heater_plant(u):
    b1, b2, b3, b4 = HEATER_B
    y1 = y2 = v1 = v2 = 0.0
    out = []
    for uk in u:
        y = b1 * y1 + b2 * v1 + b3 * y2 + b4 * v2
        y2, y1 = y1, y
        v2, v1 = v1, _heater_v(uk)
        out.append(y)
    return out


def heater_static(u):
    """Settled heater output for a constant input."""
    b1, b2, b3, b4 = HEATER_B
    return _heater_v(u) * (b2 + b4) / (1.0 - b1 - b3)


def heater_static_inverse(model, r):
    """m = sqrt(r (1 - a1 - a3) / b) for y(k) = a1 y(k-1) + a3 y(k-2) + b u(k-2)^2."""
    a = 0.0
    b = None
    for coeff, factors in model.terms:
        (sig, _lag, power), = factors
        if sig == "y" and power == 1:
            a += coeff
        elif sig == "u" and power == 2:
            b = coeff
        else:
            raise ValueError("not the heater model structure: %r" % (factors,))
    return math.sqrt(r * (1.0 - a) / b)


# ---------------------------------------------------------------------------
# Hysteresis loop of a phi-regressor model under a sine input


def sine(amplitude, f_cps, k, phase=0.0, offset=0.0):
    return offset + amplitude * np.sin(2.0 * np.pi * f_cps * k + phase)


def settled_loop(model, amplitude, f_cps, center, tol=1e-8, max_periods=64):
    """Drive the model period by period from rest at ``center`` until two
    consecutive periods agree to ``tol`` times max(1, the period's output
    span).  Returns (loading, unloading) branches as lists of (u, y): the
    loading branch by u ascending, the unloading branch by u descending.
    Returns None when the loop does not settle or the output is not finite.
    """
    period = int(round(1.0 / f_cps))
    u = []
    y = []
    prev = None
    for p in range(max_periods):
        k = np.arange(p * period, (p + 1) * period, dtype=float)
        u.extend(float(v) for v in sine(amplitude, f_cps, k) + center)
        start = p * period
        for t in range(start, start + period):
            val = predict(model, y, u, t, [0.0] * model.n_y, float(center))
            if not math.isfinite(val):
                return None
            y.append(val)
        cur = y[start:]
        if prev is not None:
            scale = max(1.0, max(cur) - min(cur))
            if max(abs(a - b) for a, b in zip(cur, prev)) < tol * scale:
                u_before = u[start - 1]
                return _branches(u[start:], cur, u_before)
        prev = cur
    return None


def _branches(u, y, u_before):
    loading, unloading = [], []
    direction = 0
    last = u_before
    for uk, yk in zip(u, y):
        if uk > last:
            direction = 1
        elif uk < last:
            direction = -1
        last = uk
        if direction > 0:
            loading.append((uk, yk))
        elif direction < 0:
            unloading.append((uk, yk))
    loading.sort(key=lambda p: p[0])
    unloading.sort(key=lambda p: -p[0])
    return loading, unloading


def branch_inverse(branch, target):
    """Input on the first branch segment that brackets ``target``, or None."""
    for (u0, y0), (u1, y1) in zip(branch, branch[1:]):
        if (y0 - target) * (y1 - target) <= 0.0:
            if y1 == y0:
                return u0
            return u0 + (target - y0) * (u1 - u0) / (y1 - y0)
    return None


def loop_seed(loop, r0, r1):
    """Initial input from a loop: on the loading branch when r1 >= r0."""
    loading, unloading = loop
    return branch_inverse(loading if r1 >= r0 else unloading, r1)
