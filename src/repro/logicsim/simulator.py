"""Event-driven logic simulation with DVS events.

A classic discrete-event kernel: net changes schedule component
re-evaluation after the component's delay; a monotone event queue
(heapq with sequence-number tiebreak) drives time forward. Supply
changes (DVS events) re-evaluate every level shifter touching the
affected domain, which is how a flipped domain pair injects X into the
logic — the behavioral picture of the paper's motivation.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.logicsim.components import Component, SupplyState
from repro.logicsim.values import HIGHZ, UNKNOWN, validate


@dataclass(frozen=True)
class NetChange:
    time: float
    net: str
    value: str


class LogicSimulator:
    """Discrete-event simulator over behavioral components.

    Example::

        sim = LogicSimulator()
        sim.add(inverter("u1", "a", "y"))
        sim.set_input("a", "0")
        sim.schedule_input(1e-9, "a", "1")
        sim.run(5e-9)
        assert sim.value("y") == "0"
    """

    def __init__(self, supplies: SupplyState | None = None):
        self.supplies = supplies or SupplyState()
        self.components: dict[str, Component] = {}
        self._fanout: dict[str, list[Component]] = {}
        self._values: dict[str, str] = {}
        self._queue: list = []
        self._sequence = itertools.count()
        self._now = 0.0
        #: Full change history per net, for assertions and traces.
        self.history: dict[str, list] = {}

    # -- construction -----------------------------------------------------

    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise AnalysisError(f"duplicate component {component.name!r}")
        drivers = [c for c in self.components.values()
                   if c.output == component.output]
        if drivers:
            raise AnalysisError(f"net {component.output!r} already "
                                f"driven by {drivers[0].name!r}")
        self.components[component.name] = component
        for net in component.inputs:
            self._fanout.setdefault(net, []).append(component)
        self._values.setdefault(component.output, UNKNOWN)
        for net in component.inputs:
            self._values.setdefault(net, UNKNOWN)
        return component

    # -- stimulus -----------------------------------------------------------

    def set_input(self, net: str, value: str) -> None:
        """Set a primary input immediately (at the current time)."""
        self._apply(net, validate(value))

    def schedule_input(self, time: float, net: str, value: str) -> None:
        if time < self._now:
            raise AnalysisError("cannot schedule in the past")
        heapq.heappush(self._queue, (time, next(self._sequence),
                                     "net", net, validate(value)))

    def schedule_supply(self, time: float, domain: str,
                        voltage: float) -> None:
        """A DVS event: the domain's supply changes at ``time``."""
        if time < self._now:
            raise AnalysisError("cannot schedule in the past")
        heapq.heappush(self._queue, (time, next(self._sequence),
                                     "supply", domain, voltage))

    # -- kernel --------------------------------------------------------------

    def _apply(self, net: str, value: str) -> None:
        if self._values.get(net) == value:
            return
        self._values[net] = value
        self.history.setdefault(net, []).append(
            NetChange(self._now, net, value))
        for component in self._fanout.get(net, ()):
            self._evaluate(component)

    def _evaluate(self, component: Component) -> None:
        inputs = [self._values.get(n, UNKNOWN) for n in component.inputs]
        new_value = validate(component.evaluate(inputs))
        heapq.heappush(self._queue,
                       (self._now + component.delay,
                        next(self._sequence), "net", component.output,
                        new_value))

    def run(self, t_stop: float) -> None:
        """Advance simulation time to ``t_stop``."""
        while self._queue and self._queue[0][0] <= t_stop:
            time, _, event_kind, target, payload = heapq.heappop(self._queue)
            self._now = time
            if event_kind == "net":
                self._apply(target, payload)
            else:
                self.supplies.set(target, payload)
                for component in self.components.values():
                    domains = getattr(component, "domains", None)
                    if domains and target in domains:
                        self._evaluate(component)
        self._now = t_stop

    # -- observation ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def value(self, net: str) -> str:
        return self._values.get(net, HIGHZ)

    def changes(self, net: str) -> list:
        return list(self.history.get(net, ()))

    def saw_unknown(self, net: str) -> bool:
        """Whether the net ever carried X after its first real value."""
        changes = self.history.get(net, ())
        seen_real = False
        for change in changes:
            if change.value in ("0", "1"):
                seen_real = True
            elif change.value == UNKNOWN and seen_real:
                return True
        return False
