"""Tests for building engine grid cases from case-study scenarios."""

from dataclasses import replace

import pytest

from repro.casestudy.grid import (
    CaseStudyGrid,
    evaluate_grid,
    scenario_case,
    scenario_cases,
)
from repro.core import CaseStudyParameters, CloudSystemModel, cloud_model
from repro.core.parameters import ALPHA_VALUES, DEFAULT_PARAMETERS
from repro.core.scenarios import CITY_PAIRS, SingleDataCenterScenario
from repro.exceptions import ModelError
from repro.expressions import parser

REDUCED = CaseStudyParameters(required_running_vms=1)


def figure7_scenarios(disaster_years=(100.0, 200.0, 300.0)):
    return CaseStudyGrid(
        city_sets=tuple(CITY_PAIRS),
        alphas=ALPHA_VALUES,
        disaster_years=disaster_years,
        machines_per_datacenter=(1,),
        backup=(True,),
    ).scenarios()


def test_rate_only_variants_reuse_parsed_guards(monkeypatch):
    """Standalone cases build one net each; their guards parse once."""
    scenarios = figure7_scenarios()
    # The warm-up build parses whatever earlier tests left unparsed.
    first = scenario_case(scenarios[0], parameters=REDUCED)
    tokenized = []
    real_tokenize = parser.tokenize

    def counting_tokenize(source):
        tokenized.append(source)
        return real_tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    variants = [scenario_case(scenario, parameters=REDUCED) for scenario in scenarios[1:11]]
    assert all(case.net.place_names == first.net.place_names for case in variants)
    assert tokenized == []


def test_rate_only_variants_share_one_net_and_keep_their_rates():
    scenarios = figure7_scenarios()[:12]
    shared = scenario_cases(scenarios, REDUCED)
    assert len({id(case.net) for case in shared}) == 1
    assert len({id(case.rate_symmetry) for case in shared}) == 1
    for case, scenario in zip(shared, scenarios):
        alone = scenario_case(scenario, parameters=REDUCED)
        assert alone.net is not shared[0].net
        assert case.full_rates() == alone.full_rates()
        assert case.measures == alone.measures
        assert case.symmetry == alone.symmetry
        assert case.rate_symmetry == alone.rate_symmetry


def test_figure7_sweep_assembles_one_net(monkeypatch):
    merges = []
    real_merge = cloud_model.merge

    def counting_merge(name, nets):
        merges.append(name)
        return real_merge(name, nets)

    monkeypatch.setattr(cloud_model, "merge", counting_merge)
    scenarios = figure7_scenarios(disaster_years=(100.0,))
    assert len(scenarios) == 15
    outcome = evaluate_grid(scenarios, REDUCED, jobs=1, use_cache=False)
    assert len(merges) == 1
    assert len(outcome.groups) == 1
    assert len(outcome.results) == 15 and not outcome.failures


def test_single_sites_with_their_own_parameters_keep_their_own_nets():
    """Two 2-PM sites differing only in VMs per PM are two structures."""
    sites = [
        SingleDataCenterScenario(
            machines=2,
            label=f"{vms} VM(s) per PM",
            parameters=replace(DEFAULT_PARAMETERS, vms_per_physical_machine=vms),
        )
        for vms in (1, 2)
    ]
    together = evaluate_grid(sites, jobs=1, use_cache=False)
    assert len(together.groups) == 2
    for site, row in zip(sites, together.results):
        (alone,) = evaluate_grid([site], jobs=1, use_cache=False).results
        assert row.value("availability") == alone.value("availability")
    first, second = (row.value("availability") for row in together.results)
    assert first != pytest.approx(second, abs=1e-6)


def test_a_key_that_misses_a_structural_input_is_refused(monkeypatch):
    monkeypatch.setattr(CloudSystemModel, "structure_key", lambda self: ())
    sites = [
        SingleDataCenterScenario(machines=machines, label=f"{machines} PM(s)")
        for machines in (1, 2)
    ]
    with pytest.raises(ModelError, match="structure key"):
        scenario_cases(sites)
