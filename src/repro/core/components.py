"""SPN block: SIMPLE_COMPONENT (Figure 2 / Table I of the paper).

A SIMPLE_COMPONENT has two places (component up / component down) and two
exponential single-server transitions (failure with mean MTTF, repair with
mean MTTR).  The paper instantiates it for physical machines (``OSPM_i``),
data-center networks (``NAS_NET_d``), disaster occurrence (``DC_d`` /
``DISASTER_d``) and the backup server (``BKP``); the guard tables reference
the "up" places as ``#OSPM_UPx``, ``#NAS_NET_UPy``, ``#DC_UPz`` and
``#BKP_UP``, so the builder uses the ``_UP`` / ``_DOWN`` suffix convention.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.spn import StochasticPetriNet


def up_place(name: str) -> str:
    """Name of the "component operational" place of a SIMPLE_COMPONENT."""
    return f"{name}_UP"


def down_place(name: str) -> str:
    """Name of the "component failed" place of a SIMPLE_COMPONENT."""
    return f"{name}_DOWN"


def failure_transition(name: str) -> str:
    """Name of the failure transition of a SIMPLE_COMPONENT (mean delay MTTF)."""
    return f"{name}_F"


def repair_transition(name: str) -> str:
    """Name of the repair transition of a SIMPLE_COMPONENT (mean delay MTTR)."""
    return f"{name}_R"


def availability_expression(name: str) -> str:
    """The paper's availability operator ``P{#X_UP > 0}`` for one component."""
    return f"#{up_place(name)} > 0"


def build_simple_component(
    name: str,
    mttf: float,
    mttr: float,
    initially_up: bool = True,
) -> StochasticPetriNet:
    """Build a SIMPLE_COMPONENT sub-net.

    Args:
        name: component label (e.g. ``"OSPM_1"``, ``"DC_1"``, ``"BKP"``);
            places become ``{name}_UP`` / ``{name}_DOWN`` and transitions
            :func:`failure_transition` / :func:`repair_transition`
            (``{name}_F`` / ``{name}_R``).
        mttf: mean time to failure (hours).
        mttr: mean time to repair (hours).
        initially_up: whether the component starts operational.

    Returns:
        A two-place, two-transition net ready to be merged into a larger model.
    """
    if mttf <= 0.0:
        raise ModelError(f"component {name!r}: MTTF must be positive, got {mttf!r}")
    if mttr <= 0.0:
        raise ModelError(f"component {name!r}: MTTR must be positive, got {mttr!r}")
    net = StochasticPetriNet(f"SIMPLE_COMPONENT_{name}")
    net.add_place(up_place(name), initial_tokens=1 if initially_up else 0)
    net.add_place(down_place(name), initial_tokens=0 if initially_up else 1)
    failure = failure_transition(name)
    repair = repair_transition(name)
    net.add_timed_transition(failure, delay=mttf, semantics="ss")
    net.add_timed_transition(repair, delay=mttr, semantics="ss")
    net.add_input_arc(up_place(name), failure)
    net.add_output_arc(failure, down_place(name))
    net.add_input_arc(down_place(name), repair)
    net.add_output_arc(repair, up_place(name))
    return net
