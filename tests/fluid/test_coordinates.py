"""Fluid coordinate naming: every name addresses exactly one coordinate."""

import pytest

from repro.choreographer.cli import main
from repro.exceptions import WellFormednessError
from repro.fluid import nvf_of_model
from repro.fluid.crossval import _exact_measures, file_sink_model
from repro.fluid.ode import analyse_fluid
from repro.pepa import parse_model

#: The environment runs the replica's own component, so every
#: environment label is also a replica local-state label.
CLASHING = "P = (a, 1.0).Q; Q = (b, 2.0).P; (P || P) <a> P"


class TestUniqueNames:
    def test_clashing_environment_names_are_qualified(self):
        nvf, _, _ = nvf_of_model(parse_model(CLASHING))
        assert nvf.names == ["P", "Q", "env:P", "env:Q"]

    def test_names_without_a_clash_stay_plain(self):
        nvf, _, _ = nvf_of_model(file_sink_model(2))
        assert nvf.names == ["Reader", "Writer", "Sink"]

    def test_both_p_coordinates_are_reachable(self):
        analysis = analyse_fluid(parse_model(CLASHING))
        # env: min(x_P, e_P) = 2 e_Q with e_P + e_Q = 1; replicas:
        # the same flow = 2 x_Q with x_P + x_Q = 2.
        assert analysis.occupancy("P") == pytest.approx(5 / 3, abs=1e-8)
        assert analysis.occupancy("Q") == pytest.approx(1 / 3, abs=1e-8)
        assert analysis.occupancy("env:P") == pytest.approx(2 / 3, abs=1e-8)
        assert analysis.occupancy("env:Q") == pytest.approx(1 / 3, abs=1e-8)
        assert len(analysis.occupancies()) == analysis.dimension == 4
        assert analysis.probability_of_local_state("env:P") == pytest.approx(2 / 3, abs=1e-8)

    def test_cli_prints_every_coordinate(self, tmp_path, capsys):
        path = tmp_path / "clash.pepa"
        path.write_text(CLASHING)
        assert main(["fluid", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 fluid coordinates" in out
        table = out.split("mean occupancy")[1].splitlines()[2:]
        rows = {line.split()[0]: float(line.split()[1]) for line in table if line.strip()}
        assert rows == pytest.approx(
            {"P": 5 / 3, "Q": 1 / 3, "env:P": 2 / 3, "env:Q": 1 / 3}, abs=1e-6
        )

    def test_exact_measures_keep_the_blocks_apart(self):
        model = parse_model(CLASHING)
        occupancy, _ = _exact_measures(model, 2, ["P", "Q"])
        assert occupancy["P"] + occupancy["Q"] == pytest.approx(2.0)
        assert occupancy["env:P"] + occupancy["env:Q"] == pytest.approx(1.0)


class TestReplicaDiscipline:
    def test_replica_defined_as_a_cooperation_is_rejected(self):
        model = parse_model(
            "Think = (think, 1.0).Ready; Ready = (rest, 2.0).Think;"
            "Sys = Think || Think; Sys"
        )
        with pytest.raises(WellFormednessError, match="non-sequential"):
            nvf_of_model(model)
