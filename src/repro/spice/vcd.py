"""VCD (Value Change Dump) export for transient results.

Writes analog node waveforms as VCD ``real`` variables so they can be
inspected in GTKWave & friends. A digital view (thresholded 0/1/x) is
also available for logic-level debugging of the shifter benches.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AnalysisError

#: Printable VCD identifier characters.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short VCD identifier for the n-th variable."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(reversed(chars))


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("#", "_")


def write_vcd(result, nodes: Sequence[str], timescale: str = "1ps",
              comment: str = "repro transient") -> str:
    """Serialize node voltages from a TransientResult as VCD text.

    Args:
        result: a :class:`~repro.spice.transient.TransientResult`.
        nodes: node names to dump.
        timescale: VCD timescale; times are rounded to its unit.
    """
    if not nodes:
        raise AnalysisError("need at least one node to dump")
    scale = {"1fs": 1e-15, "1ps": 1e-12, "1ns": 1e-9,
             "1us": 1e-6}.get(timescale)
    if scale is None:
        raise AnalysisError(f"unsupported timescale {timescale!r}")

    waves = [result.wave(node) for node in nodes]
    idents = [_identifier(i) for i in range(len(nodes))]

    lines = [f"$comment {comment} $end",
             f"$timescale {timescale} $end",
             "$scope module repro $end"]
    for node, ident in zip(nodes, idents):
        lines.append(f"$var real 64 {ident} {_sanitize(node)} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    last_values: list[float | None] = [None] * len(nodes)
    last_tick = -1
    for k, t in enumerate(result.times):
        tick = int(round(t / scale))
        emitted_time = False
        for j, wave in enumerate(waves):
            value = float(wave.values[k])
            if last_values[j] is not None and value == last_values[j]:
                continue
            if not emitted_time and tick != last_tick:
                lines.append(f"#{tick}")
                last_tick = tick
                emitted_time = True
            elif not emitted_time and tick == last_tick and k > 0:
                # Same tick: values merge into the previous time point.
                emitted_time = True
            lines.append(f"r{value:.9g} {idents[j]}")
            last_values[j] = value
    return "\n".join(lines) + "\n"


def digitize(wave, vdd: float, low_fraction: float = 0.3,
             high_fraction: float = 0.7) -> list[tuple[float, str]]:
    """Threshold an analog waveform into (time, '0'/'1'/'x') changes.

    Values below ``low_fraction * vdd`` read 0, above
    ``high_fraction * vdd`` read 1, in between 'x'. Consecutive equal
    states are merged.
    """
    if not 0.0 <= low_fraction < high_fraction <= 1.0:
        raise AnalysisError("need 0 <= low < high <= 1 thresholds")
    changes: list[tuple[float, str]] = []
    for t, v in zip(wave.times, wave.values):
        if v <= low_fraction * vdd:
            state = "0"
        elif v >= high_fraction * vdd:
            state = "1"
        else:
            state = "x"
        if not changes or changes[-1][1] != state:
            changes.append((float(t), state))
    return changes
