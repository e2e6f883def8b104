"""Simulated test plants and excitation signals.

Two plants are bundled: a Hammerstein model of an electric heater (static
input square nonlinearity into second-order linear dynamics) and a
Bouc-Wen hysteretic plant integrated with a fixed-step RK4 scheme.  Both
are deliberately richer than the NARX models identified from them, so the
compensation experiments see realistic model error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class HammersteinHeater:
    """Discrete Hammerstein heater: v = p1 u^2 + p2 u into 2nd-order dynamics.

    Inputs are clamped to [0, 1]; clamping events are counted on
    ``clamp_count`` instead of raising.
    """

    P1 = 4.639331e-1
    P2 = 5.435865e-2
    B1 = 1.205445
    B2 = 8.985133e-2
    B3 = -3.0877507e-1
    B4 = 9.462358e-3

    U_MIN, U_MAX = 0.0, 1.0

    def __init__(self):
        self.reset()

    def reset(self):
        self._y1 = 0.0
        self._y2 = 0.0
        self._v1 = 0.0
        self._v2 = 0.0
        self.clamp_count = 0

    def simulate(self, u_series):
        """Outputs for ``u_series``, continuing from the state the previous
        call left (``reset`` returns to rest)."""
        b1, b2, b3, b4, p1, p2 = self.B1, self.B2, self.B3, self.B4, self.P1, self.P2
        lo, hi = self.U_MIN, self.U_MAX
        y1, y2, v1, v2 = self._y1, self._y2, self._v1, self._v2
        clamps = 0
        ys = []
        for u in np.asarray(u_series, dtype=float).tolist():
            if u < lo:
                u = lo
                clamps += 1
            elif u > hi:
                u = hi
                clamps += 1
            y = b1 * y1 + b2 * v1 + b3 * y2 + b4 * v2
            y2, y1 = y1, y
            v2, v1 = v1, p1 * u * u + p2 * u
            ys.append(y)
        self._y1, self._y2, self._v1, self._v2 = y1, y2, v1, v2
        self.clamp_count += clamps
        return np.array(ys)

    @classmethod
    def static_output(cls, u):
        """Settled output for a constant input (clamped to the valid range),
        elementwise over an array of inputs."""
        u = np.minimum(np.maximum(u, cls.U_MIN), cls.U_MAX)
        v = cls.P1 * u * u + cls.P2 * u
        return v * (cls.B2 + cls.B4) / (1.0 - cls.B1 - cls.B3)


#: Substep rows (at least one sample's) whose input-only stage terms
#: ``BoucWenPlant.simulate`` computes at a time: nine floats each, so the
#: memory they take stays bounded however long the input is.
STAGE_ROWS = 4096


class BoucWenPlant:
    """Bouc-Wen hysteresis: h' = a u' - b |u'| h - g u' |h|, y = nu_y u - h.

    Integrated with classic RK4 at a fixed 5 ms step; the input derivative
    is estimated by finite differences (forward / central / backward).
    ``substeps``, a positive integer, subdivides each sampling interval,
    interpolating the input derivative linearly, which serves as a
    refinement check.  The RK4 loop carries only the state h: every stage
    term that depends on the input alone is computed with numpy before it,
    one block of ``STAGE_ROWS`` substeps at a time.
    """

    ALPHA = 0.9
    BETA = 0.008
    GAMMA = 0.008
    NU_Y = 1.6
    DT = 0.005

    def __init__(self):
        self.reset()

    def reset(self):
        self.h = 0.0

    def simulate(self, u_series, substeps=1):
        substeps = operator.index(substeps)
        if substeps < 1:
            raise ValueError("substeps must be >= 1, got %d" % substeps)
        u = np.asarray(u_series, dtype=float)
        n = len(u)
        if n == 0:
            return np.empty(0)
        A, B, G = self.ALPHA, self.BETA, self.GAMMA
        # inf and NaN propagate without warnings, as in scalar float code
        with np.errstate(all="ignore"):
            du = np.zeros(n)
            if n > 1:
                du[0] = (u[1] - u[0]) / self.DT
                du[-1] = (u[-1] - u[-2]) / self.DT
            if n > 2:
                du[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.DT)
        f = np.arange(substeps + 1) / substeps
        step = self.DT / substeps
        half, sixth = 0.5 * step, step / 6.0
        per = max(1, STAGE_ROWS // substeps)
        h = self.h
        hs = [h]
        for k in range(0, n - 1, per):
            # every stage term that does not depend on h, per sample and
            # substep: A v, B |v| and G v at the stage derivatives v0, vm, v1
            with np.errstate(all="ignore"):
                d = du[k:k + per + 1]
                d0, d1 = d[:-1, None], d[1:, None]
                v0 = d0 + (d1 - d0) * f[:-1]
                v1 = d0 + (d1 - d0) * f[1:]
                vm = 0.5 * (v0 + v1)
                stages = zip(*[x.ravel().tolist()
                               for v in (v0, vm, v1) for x in (A * v, B * np.abs(v), G * v)])
            block = []
            append = block.append
            # h' = A v - B |v| h - G v |h|, at each RK4 stage
            for a0, b0, g0, am, bm, gm, a1, b1, g1 in stages:
                k1 = a0 - b0 * h - g0 * abs(h)
                hh = h + half * k1
                k2 = am - bm * hh - gm * abs(hh)
                hh = h + half * k2
                k3 = am - bm * hh - gm * abs(hh)
                hh = h + step * k3
                k4 = a1 - b1 * hh - g1 * abs(hh)
                h += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                append(h)
            hs += block[substeps - 1::substeps]
        self.h = h
        with np.errstate(all="ignore"):
            return self.NU_Y * u - np.array(hs)


@dataclass(frozen=True)
class SignalSpec:
    """Excitation description for :func:`generate`.

    kinds:
      * ``sine``: offset + amplitude * sin(2 pi f k Ts + phase)
      * ``steps``: a ladder from offset to offset + amplitude; each level
        lasts round(1 / (f Ts)) samples
      * ``sine_then_hold``: sine frozen at its value at sample ``hold_at``
        (>= 0; a hold at or past the last sample never triggers)
    """

    kind: str
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    offset: float = 0.0
    hold_at: int = None


def generate(spec, n, ts=1.0):
    """Realize a :class:`SignalSpec` as ``n`` samples at sample time ``ts``."""
    n = int(n)
    kind = spec.kind.lower()
    if kind in ("sine", "sine_then_hold"):
        if spec.frequency <= 0:
            raise ValueError("frequency must be positive for sine signals")
        k = np.arange(n, dtype=float)
        s = spec.offset + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * k * ts + spec.phase
        )
        if kind == "sine_then_hold":
            if spec.hold_at is None:
                raise ValueError("sine_then_hold needs hold_at")
            hold = int(spec.hold_at)
            if hold < 0:
                raise ValueError("hold_at must be >= 0, got %d" % hold)
            if hold < n:
                s[hold:] = s[hold]
        return s
    if kind == "steps":
        if spec.frequency <= 0:
            raise ValueError("frequency must be positive for step ladders")
        f_cps = spec.frequency * ts
        # f * ts may underflow to 0, and 1 / (f * ts) overflow to inf
        if not (f_cps > 0 and 1.0 / f_cps < np.inf):
            raise ValueError("step length 1 / (f ts) overflows at frequency %g, ts=%g"
                             % (spec.frequency, ts))
        per = max(1, int(round(1.0 / f_cps)))
        levels = max(1, -(-n // per))  # ceil
        s = np.empty(n)
        for i in range(levels):
            frac = i / (levels - 1) if levels > 1 else 0.0
            s[i * per:(i + 1) * per] = spec.offset + spec.amplitude * frac
        return s
    raise ValueError("unknown signal kind %r" % spec.kind)
