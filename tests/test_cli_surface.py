"""Pin of the declared CLI surface: every option of ``repro`` and its
subcommands.

For the top-level parser and each subparser the pin records, per
argparse action, the option strings, ``dest``, default, choices,
``nargs``, ``required`` and the raw help text. Rendered ``--help``
output is not pinned: its wrapping follows ``COLUMNS`` and its headings
the Python version. The ``--workers`` default is the CPU count of the
machine, so it is masked.

Regenerate (only after an intended change to the CLI) with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SURFACE_PATH = Path(__file__).parent / "cli_surface.json"
MACHINE_DEFAULT = "<usable_cpus>"


def _plain(value):
    """JSON-stable form of a default or choices value."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _actions(parser: argparse.ArgumentParser) -> list:
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            choices = list(action.choices)
        else:
            choices = _plain(action.choices)
        default = _plain(action.default)
        if action.dest == "workers":
            default = MACHINE_DEFAULT
        rows.append({
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": default,
            "choices": choices,
            "nargs": action.nargs,
            "required": action.required,
            "help": action.help,
        })
    return rows


def surface() -> dict:
    """Command name -> its help and actions; ``repro`` is the top level."""
    parser = build_parser()
    result = {"repro": {"help": None, "actions": _actions(parser)}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help
                     for choice in action._choices_actions}
            for name, sub in action.choices.items():
                result[name] = {"help": helps.get(name),
                                "actions": _actions(sub)}
    return result


def _render(data: dict) -> str:
    """The pin file: one line per action, so a diff names the option."""
    commands = []
    for name, entry in data.items():
        actions = ",\n".join(f"  {json.dumps(action)}"
                             for action in entry["actions"])
        commands.append(f"{json.dumps(name)}: {{\"help\": "
                        f"{json.dumps(entry['help'])}, \"actions\": [\n"
                        f"{actions}]}}")
    return "{\n" + ",\n".join(commands) + "\n}\n"


def test_cli_surface_pinned():
    pinned = json.loads(SURFACE_PATH.read_text())
    current = surface()
    assert sorted(current) == sorted(pinned)
    for command in pinned:
        assert current[command] == pinned[command], command


if __name__ == "__main__":
    SURFACE_PATH.write_text(_render(surface()))
    print(f"wrote {SURFACE_PATH}")
