"""Shared fixtures: bundled models and cached hysteresis loops.

Loop tracing integrates the model over many quasi-static periods, so the
loops used by several test modules are traced once per session.
"""

import json
from importlib import resources

import pytest

import narxcomp.model as narx


def _load_bundled(name):
    ref = resources.files("narxcomp").joinpath("models/%s.json" % name)
    with ref.open() as fh:
        return narx.model_from_dict(json.load(fh))


@pytest.fixture(scope="session")
def heater_model():
    return _load_bundled("heater")


@pytest.fixture(scope="session")
def bouc_wen_model():
    return _load_bundled("bouc_wen")


@pytest.fixture(scope="session")
def bouc_wen_sigma1_model():
    return _load_bundled("bouc_wen_sigma1")


@pytest.fixture(scope="session")
def valve_model():
    return _load_bundled("valve")


@pytest.fixture(scope="session")
def bouc_wen_loop(bouc_wen_model):
    # Quasi-static loop covering most of the input range; 0.001 cycles per
    # sample is slow enough for the loop to close.
    return narx.hysteresis_loop(bouc_wen_model, 50.0, 0.001, 0.0)


@pytest.fixture(scope="session")
def valve_loop(valve_model):
    return narx.hysteresis_loop(valve_model, 2.0, 0.001, 3.0)


# The benchmark tables are deterministic but cost seconds each; several test
# modules assert different cells of the same grids, so compute each once.


@pytest.fixture(scope="session")
def heater_val_table(heater_model):
    import narxcomp.evaluation as ev

    return ev.reproduce_table("table1", heater_model)


@pytest.fixture(scope="session")
def heater_comp_table(heater_model):
    import narxcomp.evaluation as ev

    return ev.reproduce_table("table3", heater_model)


@pytest.fixture(scope="session")
def bouc_wen_val_table(bouc_wen_model):
    import narxcomp.evaluation as ev

    return ev.reproduce_table("table-bw-model", bouc_wen_model)


@pytest.fixture(scope="session")
def bouc_wen_comp_table(bouc_wen_model):
    import narxcomp.evaluation as ev

    return ev.reproduce_table("table-bw-comp", bouc_wen_model)
