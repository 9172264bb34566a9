"""repro — reproduction of "Dependability Models for Designing Disaster
Tolerant Cloud Computing Systems" (Silva, Maciel, Tavares, Zimmermann;
IEEE/IFIP DSN 2013).

The package is organised as a small stack:

* :mod:`repro.metrics` — availability arithmetic and unit-safe values,
* :mod:`repro.expressions` — the guard / measure expression language,
* :mod:`repro.rbd` — reliability block diagrams (the paper's lower level),
* :mod:`repro.markov` — CTMC solvers,
* :mod:`repro.spn` — the stochastic Petri net engine (the paper's upper level),
* :mod:`repro.network` — geography, latency, throughput and migration times,
* :mod:`repro.core` — the paper's models (SIMPLE_COMPONENT, VM_BEHAVIOR,
  TRANSMISSION_COMPONENT, hierarchical RBD→SPN flow, CloudSystemModel),
* :mod:`repro.engine` — the sparse-native scenario-batch engine (one state
  space, many parameter points),
* :mod:`repro.casestudy` — the Table VII / Figure 7 experiment harness.

Quickstart::

    from repro.core import DistributedScenario
    from repro.network import BRASILIA, RIO_DE_JANEIRO

    scenario = DistributedScenario(RIO_DE_JANEIRO, BRASILIA, alpha=0.35)
    model = scenario.build_model()
    print(model.availability())
"""

__version__ = "1.0.0"

from repro import core, engine, expressions, markov, metrics, network, rbd, spn

__all__ = [
    "core",
    "engine",
    "expressions",
    "markov",
    "metrics",
    "network",
    "rbd",
    "spn",
    "__version__",
]
