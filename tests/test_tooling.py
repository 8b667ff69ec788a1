"""The benchmark's traced run must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("qual", sorted(tracer.LAYERS))
def test_layer_resolves(qual):
    module, name = qual.split(".")
    assert module in tracer.MODULES
    assert callable(getattr(importlib.import_module(f"modsurf.{module}"), name, None))


@pytest.mark.parametrize("command", tracer.CLI_COMMANDS)
def test_cli_handler_resolves(command):
    cli = importlib.import_module("modsurf.cli")
    assert callable(getattr(cli, "cmd_" + command.replace("-", "_"), None))
