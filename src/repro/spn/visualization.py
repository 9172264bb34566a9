"""Graphviz (dot) export of stochastic Petri nets.

``to_dot`` renders places as circles (with their initial tokens), timed
transitions as hollow rectangles, immediate transitions as filled bars, and
annotates guards and delays — handy for checking that a programmatically
assembled cloud model matches the figures in the paper.
"""

from __future__ import annotations

from repro.spn.model import ArcKind, StochasticPetriNet


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def to_dot(net: StochasticPetriNet, include_guards: bool = True) -> str:
    """Render ``net`` as a Graphviz dot digraph string."""
    lines = [
        f'digraph "{_escape(net.name)}" {{',
        "  rankdir=LR;",
        '  node [fontsize=10, fontname="Helvetica"];',
        '  edge [fontsize=9, fontname="Helvetica"];',
    ]
    for place in net.places:
        tokens = f"\\n{place.initial_tokens}" if place.initial_tokens else ""
        lines.append(
            f'  "{_escape(place.name)}" [shape=circle, label="{_escape(place.name)}{tokens}"];'
        )
    for transition in net.transitions:
        if transition.immediate:
            shape = "box"
            style = "filled"
            fill = "black"
            font = "white"
            extra = f"w={transition.weight:g}, pri={transition.priority}"
        else:
            shape = "box"
            style = "solid"
            fill = "white"
            font = "black"
            extra = f"delay={transition.delay:g} ({transition.semantics.value})"
        label = f"{transition.name}\\n{extra}"
        if include_guards and transition.guard is not None:
            label += f"\\n[{_escape(transition.guard.to_source())}]"
        lines.append(
            f'  "{_escape(transition.name)}" [shape={shape}, style={style}, '
            f'fillcolor={fill}, fontcolor={font}, label="{label}"];'
        )
    for arc in net.arcs:
        label = f' [label="{arc.multiplicity}"]' if arc.multiplicity != 1 else ""
        if arc.kind is ArcKind.INPUT:
            lines.append(f'  "{_escape(arc.place)}" -> "{_escape(arc.transition)}"{label};')
        elif arc.kind is ArcKind.OUTPUT:
            lines.append(f'  "{_escape(arc.transition)}" -> "{_escape(arc.place)}"{label};')
        else:
            style = ' [arrowhead=odot%s]' % (f', label="{arc.multiplicity}"' if arc.multiplicity != 1 else "")
            lines.append(f'  "{_escape(arc.place)}" -> "{_escape(arc.transition)}"{style};')
    lines.append("}")
    return "\n".join(lines)
