"""Exact pins of the compiled numerical vector form.

The values below were recorded from the NVF compiler before it read its
coordinates and flows off the compiled local-state table; they are
compared with ``==`` so any change of coordinate order, flow order or
rate arithmetic shows up, not just a change beyond a tolerance.
"""

import numpy as np
import pytest

from repro.fluid import nvf_of_model
from repro.fluid.crossval import FAMILIES
from repro.pepa import parse_model

DEFS = """
Think = (think, 1.0).Ready;
Ready = (request, 2.0).Wait;
Wait  = (respond, 4.0).Think;
Idle  = (request, 10.0).Serve;
Serve = (reset, 5.0).Idle;
"""

PINS = {
    "roaming_sessions": {
        "names": ["Roaming", "Session"],
        "n_replica_states": 2,
        "rate_scale": 1.0,
        "n_flows": 2,
        "matrices": {
            "handover": [("Roaming", "Session", 0.5)],
            "download": [("Session", "Roaming", 1.0)],
        },
        "field_x0": [1000.0, -1000.0],
        "field_lin": [2.75, -2.75],
    },
    "file_sink": {
        "names": ["Reader", "Writer", "Sink"],
        "n_replica_states": 2,
        "rate_scale": 2.0,
        "n_flows": 3,
        "matrices": {
            "read": [("Reader", "Writer", 1.5)],
            "write": [("Writer", "Reader", 2.0), ("Sink", "Sink", 1.0)],
        },
        "field_x0": [-1500.0, 1500.0, 0.0],
        "field_lin": [2.75, -2.75, 0.0],
    },
    "message_bus": {
        "names": ["Compose", "Rest", "Send", "Bus"],
        "n_replica_states": 3,
        "rate_scale": 3.0,
        "n_flows": 4,
        "matrices": {
            "compose": [("Compose", "Send", 1.2)],
            "rest": [("Rest", "Compose", 0.8)],
            "send": [("Send", "Rest", 3.0), ("Bus", "Bus", 1.0)],
        },
        "field_x0": [-1200.0, 0.0, 1200.0, 0.0],
        "field_lin": [0.4666666666666669, 5.433333333333334, -5.900000000000001, 0.0],
    },
    "client_server": {
        "names": ["Ready", "Think", "Wait", "Idle", "Serve"],
        "n_replica_states": 3,
        "rate_scale": 10.0,
        "n_flows": 5,
        "matrices": {
            "think": [("Think", "Ready", 1.0)],
            "respond": [("Wait", "Think", 4.0)],
            "reset": [("Serve", "Idle", 5.0)],
            "request": [("Ready", "Wait", 2.0), ("Idle", "Serve", 10.0)],
        },
        "field_x0": [1000.0, -1000.0, 0.0, 0.0, 0.0],
        "field_lin": [0.125, 5.875, -6.0, 14.0, -14.0],
    },
    # The environment is a cooperation: one whole-expression local state
    # per reachable combination, with a multi-state coordinate block.
    "whole_environment": {
        "names": [
            "Idle", "Serve", "Ready || Idle", "Ready || Serve", "Think || Idle",
            "Think || Serve", "Wait || Idle", "Wait || Serve",
        ],
        "n_replica_states": 2,
        "rate_scale": 10.0,
        "n_flows": 14,
        "matrices": {
            "reset": [
                ("Serve", "Idle", 5.0),
                ("Ready || Serve", "Ready || Idle", 5.0),
                ("Think || Serve", "Think || Idle", 5.0),
                ("Wait || Serve", "Wait || Idle", 5.0),
            ],
            "think": [
                ("Think || Idle", "Ready || Idle", 1.0),
                ("Think || Serve", "Ready || Serve", 1.0),
            ],
            "respond": [
                ("Wait || Idle", "Think || Idle", 4.0),
                ("Wait || Serve", "Think || Serve", 4.0),
            ],
            "request": [
                ("Idle", "Serve", 10.0),
                ("Ready || Idle", "Wait || Idle", 2.0),
                ("Ready || Idle", "Ready || Serve", 10.0),
                ("Ready || Serve", "Wait || Serve", 2.0),
                ("Think || Idle", "Think || Serve", 10.0),
                ("Wait || Idle", "Wait || Serve", 10.0),
            ],
        },
        "field_x0": [5000.0, -5000.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        "field_lin": [
            -0.7142857142857135, 0.7142857142857135, 8.637065637065636,
            -4.8619691119691115, 18.551158301158303, -0.19401544401544157,
            2.5366795366795376, -24.66891891891892,
        ],
    },
}


def pinned_model(name):
    if name in FAMILIES:
        return FAMILIES[name].builder(3)
    return parse_model(DEFS + "(Think || Idle) <request> (Serve || Serve)")


@pytest.mark.parametrize("name", list(PINS))
def test_nvf_is_bit_identical_to_the_pin(name):
    pin = PINS[name]
    nvf, _, _ = nvf_of_model(pinned_model(name))
    assert nvf.names == pin["names"]
    assert nvf.n_replica_states == pin["n_replica_states"]
    assert nvf.rate_scale == pin["rate_scale"]
    assert nvf.n_flows == pin["n_flows"]
    matrices = nvf.activity_matrices()
    assert list(matrices) == list(pin["matrices"])
    assert matrices == pin["matrices"]
    field = nvf.vector_field(nvf.initial_vector(1000))
    assert [float(v) for v in field] == pin["field_x0"]
    field = nvf.vector_field(np.linspace(0.5, 3.0, nvf.dimension))
    assert [float(v) for v in field] == pin["field_lin"]
