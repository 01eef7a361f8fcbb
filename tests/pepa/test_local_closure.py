"""Tests for the one local-state enumeration, ``LocalStates.closure``,
and the limits of the routes built on it."""

import pytest

from repro.ctmc.operator import DescriptorUnsupported
from repro.exceptions import StateSpaceError
from repro.pepa import parse_expression, parse_model
from repro.pepa.compiled import LocalStates
from repro.pepa.kronecker import build_descriptor
from repro.pepa.statespace import derive

CLIENT_SERVER_DEFS = """
Think = (think, 1.0).Ready;
Ready = (request, 2.0).Wait;
Wait  = (response, T).Think;
Idle  = (request, T).Serve;
Serve = (response, 5.0).Idle;
"""


def defs_environment():
    return parse_model(CLIENT_SERVER_DEFS + "Idle").environment


class TestClosure:
    def test_closure_enumerates_universe(self):
        table = LocalStates(defs_environment())
        order = table.closure(table.intern(parse_expression("Idle")), 10)
        assert [table.label(i) for i in order] == ["Idle", "Serve"]

    def test_closure_bounded(self):
        table = LocalStates(defs_environment())
        with pytest.raises(StateSpaceError, match="exceeds 1 states"):
            table.closure(table.intern(parse_expression("Idle")), 1)

    def test_closure_is_breadth_first_from_the_start(self):
        table = LocalStates(defs_environment())
        order = table.closure(table.intern(parse_expression("Ready")), 10)
        assert [table.label(i) for i in order] == ["Ready", "Wait", "Think"]

    def test_closure_of_a_whole_expression(self):
        table = LocalStates(defs_environment())
        start = table.intern(parse_expression("Think || Idle"))
        order = table.closure(start, 10)
        assert order[0] == start
        assert len(order) == 6  # every (client, server) pair interleaves


class TestDescriptorBound:
    def test_component_bound_is_a_descriptor_capability_limit(self):
        model = parse_model(CLIENT_SERVER_DEFS + "(Think || Think) <request, response> Idle")
        space = derive(model)
        with pytest.raises(DescriptorUnsupported, match="component state space exceeds 1 states"):
            build_descriptor(space, model.environment, max_local_states=1)
