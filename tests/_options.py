"""The values a user can set: each subcommand's long options, walked from
build_parser(), and the config file's keys. Run as a script, it prints
their count: `PYTHONPATH=src python tests/_options.py`."""

from __future__ import annotations

import argparse

from veracity import config
from veracity.cli import build_parser


def subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's long options, --help aside."""
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    return {
        command: {option for action in parser._actions for option in action.option_strings
                  if option.startswith("--")} - {"--help"}
        for command, parser in subparsers.choices.items()
    }


def settable_count() -> int:
    return sum(map(len, subcommand_options().values())) + len(config._KEYS)


if __name__ == "__main__":
    print(f"settable values (subcommand options and config keys): {settable_count()}")
