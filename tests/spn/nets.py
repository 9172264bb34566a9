"""Reusable example nets for the SPN test-suite."""

from repro.spn import ServerSemantics, StochasticPetriNet


def simple_component(name="X", mttf=100.0, mttr=2.0, initially_on=True):
    """The paper's SIMPLE_COMPONENT block (Figure 2)."""
    net = StochasticPetriNet(f"SIMPLE_COMPONENT_{name}")
    net.add_place(f"{name}_ON", initial_tokens=1 if initially_on else 0)
    net.add_place(f"{name}_OFF", initial_tokens=0 if initially_on else 1)
    net.add_timed_transition(f"{name}_Failure", delay=mttf)
    net.add_timed_transition(f"{name}_Repair", delay=mttr)
    net.add_input_arc(f"{name}_ON", f"{name}_Failure")
    net.add_output_arc(f"{name}_Failure", f"{name}_OFF")
    net.add_input_arc(f"{name}_OFF", f"{name}_Repair")
    net.add_output_arc(f"{name}_Repair", f"{name}_ON")
    return net


def mm1k_queue(arrival_mean=2.0, service_mean=1.0, capacity=3):
    """An M/M/1/k queue as an SPN (single-server service)."""
    net = StochasticPetriNet("MM1K")
    net.add_place("FREE", initial_tokens=capacity)
    net.add_place("QUEUE", initial_tokens=0)
    net.add_timed_transition("ARRIVAL", delay=arrival_mean)
    net.add_timed_transition("SERVICE", delay=service_mean)
    net.add_input_arc("FREE", "ARRIVAL")
    net.add_output_arc("ARRIVAL", "QUEUE")
    net.add_input_arc("QUEUE", "SERVICE")
    net.add_output_arc("SERVICE", "FREE")
    return net


def machine_repair(machines=3, mttf=10.0, mttr=1.0, repair_crews=1):
    """Classic machine-repairman model: infinite-server failures, limited repair."""
    net = StochasticPetriNet("MACHINE_REPAIR")
    net.add_place("WORKING", initial_tokens=machines)
    net.add_place("BROKEN", initial_tokens=0)
    net.add_timed_transition("FAIL", delay=mttf, semantics=ServerSemantics.INFINITE_SERVER)
    semantics = (
        ServerSemantics.INFINITE_SERVER if repair_crews >= machines else ServerSemantics.SINGLE_SERVER
    )
    net.add_timed_transition("REPAIR", delay=mttr, semantics=semantics)
    net.add_input_arc("WORKING", "FAIL")
    net.add_output_arc("FAIL", "BROKEN")
    net.add_input_arc("BROKEN", "REPAIR")
    net.add_output_arc("REPAIR", "WORKING")
    return net


def immediate_routing(weight_a=1.0, weight_b=3.0):
    """A timed arrival routed by two competing immediate transitions."""
    net = StochasticPetriNet("ROUTING")
    net.add_place("SOURCE", initial_tokens=1)
    net.add_place("CHOICE", initial_tokens=0)
    net.add_place("PATH_A", initial_tokens=0)
    net.add_place("PATH_B", initial_tokens=0)
    net.add_timed_transition("ARRIVE", delay=1.0)
    net.add_immediate_transition("ROUTE_A", weight=weight_a)
    net.add_immediate_transition("ROUTE_B", weight=weight_b)
    net.add_timed_transition("DONE_A", delay=2.0)
    net.add_timed_transition("DONE_B", delay=2.0)
    net.add_input_arc("SOURCE", "ARRIVE")
    net.add_output_arc("ARRIVE", "CHOICE")
    net.add_input_arc("CHOICE", "ROUTE_A")
    net.add_output_arc("ROUTE_A", "PATH_A")
    net.add_input_arc("CHOICE", "ROUTE_B")
    net.add_output_arc("ROUTE_B", "PATH_B")
    net.add_input_arc("PATH_A", "DONE_A")
    net.add_output_arc("DONE_A", "SOURCE")
    net.add_input_arc("PATH_B", "DONE_B")
    net.add_output_arc("DONE_B", "SOURCE")
    return net


def guarded_failover(primary_mttf=10.0, primary_mttr=1.0, activate="#PRIMARY_ON = 0"):
    """A spare that is only allowed to run while the primary is down (guard test)."""
    net = StochasticPetriNet("FAILOVER")
    net.add_place("PRIMARY_ON", initial_tokens=1)
    net.add_place("PRIMARY_OFF", initial_tokens=0)
    net.add_place("SPARE_IDLE", initial_tokens=1)
    net.add_place("SPARE_ACTIVE", initial_tokens=0)
    net.add_timed_transition("P_FAIL", delay=primary_mttf)
    net.add_timed_transition("P_REPAIR", delay=primary_mttr)
    net.add_immediate_transition("ACTIVATE", guard=activate)
    net.add_immediate_transition("DEACTIVATE", guard="#PRIMARY_ON > 0")
    net.add_input_arc("PRIMARY_ON", "P_FAIL")
    net.add_output_arc("P_FAIL", "PRIMARY_OFF")
    net.add_input_arc("PRIMARY_OFF", "P_REPAIR")
    net.add_output_arc("P_REPAIR", "PRIMARY_ON")
    net.add_input_arc("SPARE_IDLE", "ACTIVATE")
    net.add_output_arc("ACTIVATE", "SPARE_ACTIVE")
    net.add_input_arc("SPARE_ACTIVE", "DEACTIVATE")
    net.add_output_arc("DEACTIVATE", "SPARE_IDLE")
    return net
