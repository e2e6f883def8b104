"""Simulated plants and excitation signals."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narxcomp import model as narx
from narxcomp.benchmarks import (
    BoucWenPlant,
    HammersteinHeater,
    SignalSpec,
    generate,
)


# ---------------------------------------------------------------------------
# Hammerstein heater


def test_heater_starts_at_rest():
    plant = HammersteinHeater()
    y = plant.simulate(np.ones(3))
    assert y[0] == 0.0
    v = plant.P1 + plant.P2
    assert y[1] == pytest.approx(plant.B2 * v, rel=1e-12)
    assert y[2] == pytest.approx(
        plant.B1 * y[1] + plant.B2 * v + plant.B4 * v, rel=1e-12
    )


def test_heater_static_output_formula():
    p = HammersteinHeater
    for u in (0.0, 0.3, 0.5, 1.0):
        v = p.P1 * u * u + p.P2 * u
        want = v * (p.B2 + p.B4) / (1.0 - p.B1 - p.B3)
        assert p.static_output(u) == pytest.approx(want, rel=1e-12)
    assert p.static_output(0.0) == 0.0
    # Outside the power range the static map clamps.
    assert p.static_output(1.7) == p.static_output(1.0)
    assert p.static_output(-2.0) == 0.0


def scalar_static_output(u):
    """The heater's static map as it was written for one float at a time."""
    p = HammersteinHeater
    u = min(max(float(u), p.U_MIN), p.U_MAX)
    v = p.P1 * u * u + p.P2 * u
    return v * (p.B2 + p.B4) / (1.0 - p.B1 - p.B3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from([-0.0, 0.0, 1.0, -1e-300, 1.0 + 1e-16]),
                max_size=12))
def test_heater_static_output_is_elementwise(us):
    got = HammersteinHeater.static_output(np.array(us, dtype=float))
    assert [repr(float(y)) for y in got] == [repr(scalar_static_output(u)) for u in us]
    for u in us:
        assert repr(float(HammersteinHeater.static_output(u))) == repr(scalar_static_output(u))


def test_heater_settles_to_static_output():
    plant = HammersteinHeater()
    y = plant.simulate(np.full(4000, 0.5))
    assert y[-1] == pytest.approx(plant.static_output(0.5), rel=1e-9)
    # Monotone approach from rest, no overshoot ringing at this level.
    assert abs(y[-1] - y[-2]) < 1e-12


def test_heater_clamps_and_counts():
    plant = HammersteinHeater()
    y_clamped = plant.simulate([-0.5, 1.5, 0.5])
    assert plant.clamp_count == 2
    ref = HammersteinHeater()
    y_ref = ref.simulate([0.0, 1.0, 0.5])
    assert np.allclose(y_clamped, y_ref)
    assert ref.clamp_count == 0


def test_heater_reset_clears_state():
    plant = HammersteinHeater()
    plant.simulate([2.0, 2.0])
    assert plant.clamp_count == 2
    plant.reset()
    assert plant.clamp_count == 0
    assert plant.simulate([0.7])[0] == 0.0


class StepHeater(HammersteinHeater):
    """The heater as it was simulated: one ``step`` call per sample."""

    def step(self, u):
        u = float(u)
        if u < self.U_MIN:
            u = self.U_MIN
            self.clamp_count += 1
        elif u > self.U_MAX:
            u = self.U_MAX
            self.clamp_count += 1
        y = (
            self.B1 * self._y1
            + self.B2 * self._v1
            + self.B3 * self._y2
            + self.B4 * self._v2
        )
        v = self.P1 * u * u + self.P2 * u
        self._y2, self._y1 = self._y1, y
        self._v2, self._v1 = self._v1, v
        return y

    def simulate(self, u_series):
        return np.array([self.step(u) for u in u_series])


HEATER_STATE = ("_y1", "_y2", "_v1", "_v2", "clamp_count")


@pytest.mark.parametrize("u", [
    [],
    [0.5],
    [np.nan, 0.3, 0.6, 0.2, 0.9],
    [np.inf, 0.4, -np.inf, 0.7, 0.1],
    [-0.0, 0.0, 0.5, -0.0, 1.0],
    [-0.2, 1.3, 0.999, 1.0 + 1e-16, -1e-300, 0.45, 2.0, -5.0],
    np.random.default_rng(3).uniform(-0.3, 1.3, 600).tolist(),
], ids=["empty", "one", "nan", "inf", "negative-zero", "clamped", "random"])
@pytest.mark.parametrize("split", [None, 2])
def test_heater_equals_the_step_loop_bit_for_bit(u, split):
    plant, ref = HammersteinHeater(), StepHeater()
    parts = [u] if split is None else [u[:split], u[split:]]
    for part in parts:
        got, want = plant.simulate(np.array(part, dtype=float)), ref.simulate(part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ([repr(getattr(plant, a)) for a in HEATER_STATE]
                == [repr(getattr(ref, a)) for a in HEATER_STATE])


def test_heater_linear_dynamics_are_stable():
    # the benchmark is meaningless unless y = B1 y(k-1) + B3 y(k-2) + ... is
    # stable: lambda^2 - B1 lambda - B3 has both roots inside the unit circle
    h = HammersteinHeater
    assert narx.schur_stable([-h.B3, -h.B1, 1.0]) is True
    assert narx.schur_stable([0.0, -2.0, 1.0]) is False  # B1 = 2, B3 = 0


# ---------------------------------------------------------------------------
# Bouc-Wen plant


def test_bouc_wen_zero_input_zero_output():
    plant = BoucWenPlant()
    y = plant.simulate(np.zeros(100))
    assert np.all(y == 0.0)
    assert plant.h == 0.0


def test_bouc_wen_constant_input_is_pure_gain():
    # With no input motion the hysteretic state stays put.
    plant = BoucWenPlant()
    y = plant.simulate(np.full(50, 12.5))
    assert np.allclose(y, plant.NU_Y * 12.5)
    assert plant.h == pytest.approx(0.0, abs=1e-12)


def test_bouc_wen_empty_input():
    assert BoucWenPlant().simulate([]).size == 0


def test_bouc_wen_shows_hysteresis():
    plant = BoucWenPlant()
    k = np.arange(2000)
    u = 40.0 * np.sin(2.0 * np.pi * 1.0 * k * plant.DT)
    y = plant.simulate(u)
    # Compare output at matching input levels on rising vs falling sweeps
    # within the settled final period.
    period = int(round(1.0 / (1.0 * plant.DT)))
    u_p, y_p = u[-period:], y[-period:]
    rising = np.diff(u_p, prepend=u_p[0] - 1) > 0
    target = 0.0
    y_up = np.interp(target, u_p[rising], y_p[rising])
    order = np.argsort(u_p[~rising])
    y_dn = np.interp(target, u_p[~rising][order], y_p[~rising][order])
    assert abs(y_up - y_dn) > 1.0  # a visible loop, not a line


def test_bouc_wen_state_persists_across_calls():
    k = np.arange(300)
    u = 30.0 * np.sin(2.0 * np.pi * 1.0 * k * BoucWenPlant.DT)
    whole = BoucWenPlant().simulate(u)
    split = BoucWenPlant()
    first = split.simulate(u[:150])
    # The derivative estimate differs at the split boundary (one-sided
    # there), so exact agreement is only expected away from the seam.
    assert np.allclose(first[:-2], whole[:148])
    split.reset()
    assert split.h == 0.0


def test_bouc_wen_substep_refinement_converges():
    k = np.arange(1500)
    u = 50.0 * np.sin(2.0 * np.pi * 2.0 * k * BoucWenPlant.DT)
    y1 = BoucWenPlant().simulate(u, substeps=1)
    y10 = BoucWenPlant().simulate(u, substeps=10)
    y20 = BoucWenPlant().simulate(u, substeps=20)
    d1 = np.max(np.abs(y1 - y20))
    d10 = np.max(np.abs(y10 - y20))
    assert d1 < 0.05          # coarse integration already close
    assert d10 < d1 / 2       # and refinement tightens it


def test_bouc_wen_loop_is_nearly_rate_independent():
    # The state equation scales with the input rate, so the settled loop
    # is the same at different frequencies up to discretization error.
    spans = []
    for f in (0.5, 2.0):
        plant = BoucWenPlant()
        period = int(round(1.0 / (f * plant.DT)))
        k = np.arange(6 * period)
        y = plant.simulate(40.0 * np.sin(2.0 * np.pi * f * k * plant.DT))
        spans.append(np.ptp(y[-period:]))
    assert spans[0] == pytest.approx(spans[1], rel=5e-3)


def rk4_with_hdot(plant, u_series, substeps=1):
    """The plant's integration written with a separate state-derivative
    function, stage by stage on numpy scalars."""

    def hdot(h, udot):
        return plant.ALPHA * udot - plant.BETA * abs(udot) * h - plant.GAMMA * udot * abs(h)

    u = np.asarray(u_series, dtype=float)
    n = len(u)
    y = np.empty(n)
    du = np.zeros(n)
    if n > 1:
        du[0] = (u[1] - u[0]) / plant.DT
        du[-1] = (u[-1] - u[-2]) / plant.DT
    if n > 2:
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * plant.DT)
    h = plant.h
    step = plant.DT / substeps
    for k in range(n):
        y[k] = plant.NU_Y * u[k] - h
        if k == n - 1:
            break
        for s in range(substeps):
            v0 = du[k] + (du[k + 1] - du[k]) * (s / substeps)
            v1 = du[k] + (du[k + 1] - du[k]) * ((s + 1) / substeps)
            vm = 0.5 * (v0 + v1)
            k1 = hdot(h, v0)
            k2 = hdot(h + 0.5 * step * k1, vm)
            k3 = hdot(h + 0.5 * step * k2, vm)
            k4 = hdot(h + step * k3, v1)
            h += step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    plant.h = h
    return y


@pytest.mark.parametrize("substeps", [1, 4])
@pytest.mark.parametrize("hold_at", [None, 1130])
def test_bouc_wen_matches_stagewise_rk4_exactly(substeps, hold_at):
    k = np.arange(2000)
    u = 60.0 * np.sin(2.0 * np.pi * 1.5 * k * BoucWenPlant.DT + 0.3)
    if hold_at is not None:
        u[hold_at:] = u[hold_at]
    plant, ref = BoucWenPlant(), BoucWenPlant()
    for part in (u[:1250], u[1250:]):  # the state carries over between calls
        got = plant.simulate(part, substeps=substeps)
        want = rk4_with_hdot(ref, part, substeps=substeps)
        assert np.array_equal(got, want)
        assert plant.h == ref.h


def rk4_scalar_loop(plant, u_series, substeps=1):
    """The plant's integration as one scalar loop on Python floats, every
    stage term evaluated in place and each output stored as it goes."""
    u = np.asarray(u_series, dtype=float)
    n = len(u)
    y = np.empty(n)
    if n == 0:
        return y
    du = np.zeros(n)
    with np.errstate(all="ignore"):
        if n > 1:
            du[0] = (u[1] - u[0]) / plant.DT
            du[-1] = (u[-1] - u[-2]) / plant.DT
        if n > 2:
            du[1:-1] = (u[2:] - u[:-2]) / (2.0 * plant.DT)
    A, B, G, nu_y = plant.ALPHA, plant.BETA, plant.GAMMA, plant.NU_Y
    h = plant.h
    step = plant.DT / substeps
    fractions = [(s / substeps, (s + 1) / substeps) for s in range(substeps)]
    u, du = u.tolist(), du.tolist()
    for k in range(n):
        y[k] = nu_y * u[k] - h
        if k == n - 1:
            break
        d0, d1 = du[k], du[k + 1]
        for f0, f1 in fractions:
            v0 = d0 + (d1 - d0) * f0
            v1 = d0 + (d1 - d0) * f1
            vm = 0.5 * (v0 + v1)
            k1 = A * v0 - B * abs(v0) * h - G * v0 * abs(h)
            hh = h + 0.5 * step * k1
            k2 = A * vm - B * abs(vm) * hh - G * vm * abs(hh)
            hh = h + 0.5 * step * k2
            k3 = A * vm - B * abs(vm) * hh - G * vm * abs(hh)
            hh = h + step * k3
            k4 = A * v1 - B * abs(v1) * hh - G * v1 * abs(hh)
            h += step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    plant.h = h
    return y


INF, NAN = float("inf"), float("nan")
SCALAR_LOOP_INPUTS = [
    [], [3.0], [0.0, 2.5], [-1.0, 4.0, 2.0],
    [0.0, -0.0, -0.0, 0.0, -0.0],
    [1.0, NAN, 2.0, 3.0, -1.0],
    [0.0, INF, 1.0, -INF, 2.0, 0.0],
    [0.0, 0.0, 1e306, 1e306, 0.0, 0.0],
    (30.0 * np.sin(2.0 * np.pi * 1.3 * np.arange(400) * BoucWenPlant.DT)).tolist(),
]


@pytest.mark.parametrize("substeps", [1, 4, 10])
@pytest.mark.parametrize("u", SCALAR_LOOP_INPUTS)
@pytest.mark.parametrize("h0", [0.0, -0.0, 7.5])
def test_bouc_wen_equals_the_scalar_loop_bit_for_bit(u, substeps, h0):
    # whole, and split across two calls that carry h, on y and on h
    for parts in ([u], [u[:len(u) // 2], u[len(u) // 2:]]):
        plant, ref = BoucWenPlant(), BoucWenPlant()
        plant.h = ref.h = h0
        for part in parts:
            got = plant.simulate(part, substeps=substeps)
            want = rk4_scalar_loop(ref, part, substeps=substeps)
            assert got.tobytes() == want.tobytes()
            assert np.float64(plant.h).tobytes() == np.float64(ref.h).tobytes()


@pytest.mark.parametrize("rows", [1, 7, 64])
@pytest.mark.parametrize("substeps", [1, 4, 10])
def test_bouc_wen_stage_blocks_join_bit_for_bit(monkeypatch, rows, substeps):
    # the stage terms are computed a block of substep rows at a time; h
    # carries over from block to block as from substep to substep
    import narxcomp.benchmarks as benchmarks

    monkeypatch.setattr(benchmarks, "STAGE_ROWS", rows)
    u = SCALAR_LOOP_INPUTS[-1]
    plant, ref = BoucWenPlant(), BoucWenPlant()
    got = plant.simulate(u, substeps=substeps)
    assert got.tobytes() == rk4_scalar_loop(ref, u, substeps=substeps).tobytes()
    assert plant.h == ref.h


def test_bouc_wen_overflow_is_silent():
    # the input-only stage terms overflow to inf here; like scalar floats,
    # the plant propagates inf and NaN without a RuntimeWarning
    u = [0.0, 0.0, 1e306, 1e306, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = BoucWenPlant().simulate(u)
    assert y.tobytes() == rk4_scalar_loop(BoucWenPlant(), u).tobytes()
    assert not np.all(np.isfinite(y))


@pytest.mark.parametrize("substeps", [-1, 0])
def test_bouc_wen_rejects_substeps_below_one(substeps):
    plant = BoucWenPlant()
    with pytest.raises(ValueError, match="substeps"):
        plant.simulate([0.0, 10.0, 20.0, 10.0], substeps=substeps)
    assert plant.h == 0.0


@pytest.mark.parametrize("substeps", [2.5, 1.0, "4"])
def test_bouc_wen_rejects_non_integer_substeps(substeps):
    with pytest.raises(TypeError):
        BoucWenPlant().simulate([0.0, 10.0, 20.0, 10.0], substeps=substeps)


def test_bouc_wen_accepts_integer_like_substeps():
    u = [0.0, 10.0, 20.0, 10.0]
    want = BoucWenPlant().simulate(u, substeps=4)
    assert BoucWenPlant().simulate(u, substeps=np.int64(4)).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Signal specs


def test_generate_sine_oracle():
    spec = SignalSpec(kind="sine", amplitude=2.0, frequency=0.25, offset=1.0)
    s = generate(spec, 4)
    assert s == pytest.approx([1.0, 3.0, 1.0, -1.0], abs=1e-12)


def test_generate_sine_uses_sample_time():
    spec = SignalSpec(kind="sine", amplitude=1.0, frequency=0.025)
    a = generate(spec, 10, ts=10.0)
    b = generate(SignalSpec(kind="sine", amplitude=1.0, frequency=0.25), 10, ts=1.0)
    assert np.allclose(a, b)


def test_generate_sine_phase():
    spec = SignalSpec(kind="sine", amplitude=1.0, frequency=0.1, phase=np.pi / 2)
    assert generate(spec, 1)[0] == pytest.approx(1.0)


def test_generate_sine_then_hold():
    spec = SignalSpec(
        kind="sine", amplitude=1.0, frequency=0.01
    )
    base = generate(spec, 200)
    held = generate(
        SignalSpec(kind="sine_then_hold", amplitude=1.0, frequency=0.01, hold_at=50),
        200,
    )
    assert np.allclose(held[:50], base[:50])
    assert np.all(held[50:] == base[50])


def test_generate_sine_then_hold_requires_hold_at():
    with pytest.raises(ValueError):
        generate(SignalSpec(kind="sine_then_hold", amplitude=1.0, frequency=0.01), 10)


def test_generate_sine_then_hold_rejects_negative_hold_at():
    spec = SignalSpec(kind="sine_then_hold", amplitude=1.0, frequency=0.01, hold_at=-5)
    with pytest.raises(ValueError, match="hold_at"):
        generate(spec, 10)
    # a hold at or past the last sample never triggers
    sine = generate(SignalSpec(kind="sine", amplitude=1.0, frequency=0.01), 10)
    for hold_at in (10, 11):
        late = SignalSpec(kind="sine_then_hold", amplitude=1.0, frequency=0.01, hold_at=hold_at)
        assert np.array_equal(generate(late, 10), sine)


def test_generate_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        generate(SignalSpec(kind="sine", amplitude=1.0, frequency=0.0), 10)
    with pytest.raises(ValueError):
        generate(SignalSpec(kind="steps", amplitude=1.0, frequency=-1.0), 10)


def test_generate_steps_ladder():
    spec = SignalSpec(kind="steps", amplitude=4.0, frequency=0.1, offset=1.0)
    s = generate(spec, 30)
    assert np.all(s[:10] == 1.0)
    assert np.all(s[10:20] == 3.0)
    assert np.all(s[20:] == 5.0)


@pytest.mark.parametrize("frequency", [1e-320, 1e-310])
def test_generate_steps_rejects_a_step_length_past_the_float_range(frequency):
    # f * ts underflows to 0, or 1 / (f * ts) overflows to inf
    spec = SignalSpec(kind="steps", amplitude=0.1, frequency=frequency, offset=0.2)
    with pytest.raises(ValueError, match="^step length 1 / \\(f ts\\) overflows"):
        generate(spec, 10, 1e-10)
    # a step far longer than the signal is one level
    assert np.all(generate(spec, 10, 1e100) == 0.2)


def test_generate_steps_single_level():
    s = generate(SignalSpec(kind="steps", amplitude=4.0, frequency=0.1, offset=2.0), 8)
    assert np.all(s == 2.0)


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate(SignalSpec(kind="triangle", amplitude=1.0, frequency=0.1), 10)
