"""Submission vocabulary: validation, canonical digests, case counting."""

import pytest

from repro.service.spec import GridSpec, JobOptions, SpecError


def minimal(**overrides):
    payload = {"cities": [["Rio de Janeiro", "Brasilia"], ["Rio de Janeiro"]]}
    payload.update(overrides)
    return payload


class TestGridSpecValidation:
    def test_round_trips_through_payload(self):
        spec = GridSpec.from_payload(
            minimal(
                alphas=[0.35, 0.5],
                disaster_years=[50, 100],
                machines=[1, 2],
                l_thresholds=[1],
                backup="both",
                topology="ring",
                required_vms=2,
                max_states=5000,
            )
        )
        again = GridSpec.from_payload(spec.as_payload())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            GridSpec.from_payload(["not", "an", "object"])

    def test_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="unknown field.*'citties'"):
            GridSpec.from_payload(minimal(citties=[["Rio de Janeiro"]]))

    def test_requires_cities(self):
        with pytest.raises(SpecError, match="'cities'"):
            GridSpec.from_payload({})

    def test_rejects_empty_city_set(self):
        with pytest.raises(SpecError, match="non-empty array of city names"):
            GridSpec.from_payload({"cities": [[]]})

    def test_rejects_unknown_city(self):
        with pytest.raises(SpecError, match="Atlantis"):
            GridSpec.from_payload({"cities": [["Atlantis"]]})

    def test_rejects_bad_axis_value(self):
        with pytest.raises(SpecError, match="'alphas' values must be float"):
            GridSpec.from_payload(minimal(alphas=["fast"]))

    def test_rejects_bad_backup(self):
        with pytest.raises(SpecError, match="'backup' must be one of"):
            GridSpec.from_payload(minimal(backup="maybe"))

    def test_rejects_non_positive_required_vms(self):
        with pytest.raises(SpecError, match="'required_vms'"):
            GridSpec.from_payload(minimal(required_vms=0))


@pytest.mark.parametrize(
    "section,field,value",
    [
        # 1.5 machines would truncate to 1: another grid under [1]'s digest.
        ("grid", "machines", [1.5]),
        ("grid", "machines", [True]),
        ("grid", "l_thresholds", [True]),
        ("grid", "alphas", ["0.35"]),
        ("grid", "alphas", [True]),
        ("grid", "alphas", [float("nan")]),
        ("grid", "disaster_years", [float("inf")]),
        ("grid", "disaster_years", [float("nan")]),
        ("grid", "required_vms", True),
        ("grid", "max_states", True),
        ("options", "jobs", True),
        ("options", "max_retries", True),
        ("options", "job_retries", True),
        ("options", "deadline_seconds", True),
        ("options", "deadline_seconds", float("inf")),
    ],
)
def test_rejects_values_that_are_not_what_the_field_counts(section, field, value):
    """Nothing is coerced: a boolean is not a count, a string is not a
    number, a fraction is not a machine count, and NaN or Infinity is no
    axis point or deadline."""
    with pytest.raises(SpecError, match=f"'{field}'"):
        if section == "grid":
            GridSpec.from_payload(minimal(**{field: value}))
        else:
            JobOptions.from_payload({field: value})


@pytest.mark.parametrize(
    "field,value,named",
    [
        ("alphas", [0], "alpha"),
        ("alphas", [1.5], "alpha"),
        ("disaster_years", [0], "the disaster mean time"),
    ],
)
def test_rejects_cases_that_cannot_run(field, value, named):
    """A value of the right type that no scenario accepts is refused at
    submission, not journaled and acknowledged and then failed."""
    with pytest.raises(SpecError, match=f"cannot run: {named}"):
        GridSpec.from_payload(minimal(**{field: value}))


class TestDigest:
    def test_digest_ignores_options(self):
        spec = GridSpec.from_payload(minimal())
        assert (
            JobOptions.from_payload({"jobs": 4}).as_payload
            is not None
        )
        # The digest is a function of the grid alone.
        assert spec.digest() == GridSpec.from_payload(minimal()).digest()

    def test_digest_changes_with_axes(self):
        base = GridSpec.from_payload(minimal())
        other = GridSpec.from_payload(minimal(machines=[2]))
        assert base.digest() != other.digest()

    def test_digest_stable_against_key_order(self):
        a = GridSpec.from_payload({"cities": [["Rio de Janeiro"]], "backup": "on"})
        b = GridSpec.from_payload({"backup": "on", "cities": [["Rio de Janeiro"]]})
        assert a.digest() == b.digest()


class TestCaseCount:
    def test_single_site_prunes_axes(self):
        spec = GridSpec.from_payload(
            {
                "cities": [["Rio de Janeiro"]],
                "alphas": [0.35, 0.5],
                "machines": [1, 2],
                "disaster_years": [50, 100],
                "l_thresholds": [1, 2],
                "backup": "both",
            }
        )
        # A single site has no alpha, l or backup axis.
        assert spec.case_count() == 2 * 2

    def test_mixed_structures_counted_per_set(self):
        spec = GridSpec.from_payload(
            minimal(machines=[1, 2], alphas=[0.35], backup="both")
        )
        assert spec.case_count() == (2 * 1 * 1 * 1 * 2) + 2

    def test_count_matches_scenarios(self):
        spec = GridSpec.from_payload(minimal(machines=[1, 2], backup="both"))
        assert spec.case_count() == len(spec.scenarios())


class TestJobOptions:
    def test_defaults(self):
        options = JobOptions.from_payload(None)
        assert options.dedupe
        assert options.deadline_seconds is None

    def test_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="unknown field"):
            JobOptions.from_payload({"dead_line": 3})

    def test_rejects_bad_deadline(self):
        with pytest.raises(SpecError, match="'deadline_seconds'"):
            JobOptions.from_payload({"deadline_seconds": -1})

    def test_accepts_and_ignores_a_journaled_backend_key(self):
        # Jobs journaled before the fan-out rule became the only dispatch
        # carry a backend choice, including values no longer meaningful.
        for backend in ("auto", "serial", "process", "thread"):
            options = JobOptions.from_payload({"backend": backend, "jobs": 2})
            assert options == JobOptions(jobs=2)
            assert "backend" not in options.as_payload()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_rejects_non_boolean_dedupe(self, value):
        with pytest.raises(SpecError, match="'dedupe' must be a JSON boolean"):
            JobOptions.from_payload({"dedupe": value})

    def test_accepts_and_ignores_a_journaled_pipeline_key(self):
        options = JobOptions.from_payload({"pipeline": True, "dedupe": False})
        assert options == JobOptions(dedupe=False)
        assert "pipeline" not in options.as_payload()

    def test_round_trip(self):
        options = JobOptions.from_payload(
            {"jobs": 2, "deadline_seconds": 30, "metadata": {"who": "ci"}}
        )
        assert JobOptions.from_payload(options.as_payload()) == options
