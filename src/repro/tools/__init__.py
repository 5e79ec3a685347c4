"""The ``promising-arm`` command-line interface."""

from .cli import build_parser, main

__all__ = ["build_parser", "main"]
