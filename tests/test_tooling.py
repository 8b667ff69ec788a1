"""Tooling checks: the traced benchmark run finds every function it wraps,
src imports only at module level, the CLI's start imports no scipy, every
private constant, public name and dataclass field is read, every warnings
filter names its category, and the README's config example lists every
config key."""

import ast
import configparser
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "modsurf"
README = SRC.parent.parent / "README.md"


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


def test_no_imports_inside_functions():
    # every import sits at module level, so an import cycle between the
    # layers fails at import time instead of hiding inside a function
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def test_cli_start_imports_no_scipy():
    # the runtime needs numpy only; scipy is a test extra, the oracle of
    # specfun's log-gamma and digamma
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import modsurf.cli; "
            "from modsurf.transform import TransformParams; TransformParams.default(1.0); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_private_constants_are_read():
    # a private module constant that its own module never reads is a
    # leftover of code that has gone
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                   if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(defined - read)]
    assert not unread, unread


# the position of the category argument of each warnings filter call
_CATEGORY_ARG = {"simplefilter": 1, "filterwarnings": 2}


def test_no_blanket_warning_filter():
    # a warnings filter in src names the category it acts on, so no other
    # warning is silenced with it
    blanket = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if (name in _CATEGORY_ARG and len(node.args) <= _CATEGORY_ARG[name]
                    and all(kw.arg != "category" for kw in node.keywords)):
                blanket.append(f"{path.name}:{node.lineno}")
    assert not blanket, blanket


# public names in src that need no caller in src or perfbench, and why
_PUBLIC_WITHOUT_CALLER = {
    "eisenstein.eisenstein_eval": "scalar wrapper of eisenstein_eval_many",
    "eisenstein.scattering_phi": "scalar wrapper of the φ that eisenstein_eval_many uses",
    "specfun.h_watson": "the weight of Watson's theorem in the paper",
    "transform.automorphic_kernel": "the kernel the surface mass sums; its caller is still to come",
    "specfun.bessel_k_imag": "scalar wrapper of bessel_k_imag_many",
    "hypgeo.surface_distance": "Point form of surface_distance_matrix",
    "hypgeo.height": "the cusp height of the paper, a Point form of reduce",
    "transport.dual_lower_bound": "the pair form that the many-form tests compare against",
    "transport.load_plan": "the reader of the --plan-out format that save_plan writes",
    "cli._Parser.error": "an argparse override, which argparse calls",
}
# main looks each subcommand's handler cmd_<name> up by name
_HANDLER = re.compile(r"cli\.cmd_\w+")


def _public_names():
    """module.name of each public module-level name in src, and module.Class.method of each
    public method; __init__ only re-exports names defined in the modules."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [target.id for target in
                         (node.targets if isinstance(node, ast.Assign) else [node.target])
                         if isinstance(target, ast.Name)]
            else:
                names = []
            yield from (f"{path.stem}.{name}" for name in names if not name.startswith("_"))
            if isinstance(node, ast.ClassDef):
                yield from (f"{path.stem}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_exported_names_have_a_caller():
    # a public name read only by tests is a setting or a wrapper nothing uses;
    # a caller is a name or attribute read in code, or a function the tracer wraps
    read = {qual.split(".")[1] for qual in tracer.LAYERS}
    for path in [*SRC.glob("*.py"), *TRACER.parent.glob("*.py")]:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    uncalled = {qual for qual in _public_names()
                if qual.rsplit(".", 1)[1] not in read and not _HANDLER.fullmatch(qual)}
    assert uncalled == set(_PUBLIC_WITHOUT_CALLER), sorted(uncalled)


# dataclass fields that no code in src or perfbench reads, and why
_FIELDS_WITHOUT_READER = {
    "BerryEsseenBound.leading_term": "a term of the paper's bound",
    "BerryEsseenBound.eisenstein_term": "a term of the paper's bound",
    "BerryEsseenBound.cuspidal_term": "a term of the paper's bound",
    "BerryEsseenBound.eisenstein_tail_bound": "a term of the paper's bound",
    "ClosedGeodesic.form": "the geodesic of a narrow class",
    "ClosedGeodesic.endpoints": "the geodesic of a narrow class",
    "ClosedGeodesic.automorph": "the geodesic of a narrow class",
    "TransportPlan.duals": "the LP certificate that ROADMAP item 9's W1 bracket will read",
}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_dataclass_fields_are_read():
    # a field that nothing reads as an attribute is a value carried for no caller
    fields, read = set(), set()
    for path in [*SRC.glob("*.py"), *TRACER.parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert unread == set(_FIELDS_WITHOUT_READER), sorted(unread)


def test_readme_config_example_lists_every_key():
    # the README's ini block shows each section and key that load_config accepts
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    parser = configparser.ConfigParser(default_section="", inline_comment_prefixes=("#",))
    parser.read_string(block)
    cli = importlib.import_module("modsurf.cli")
    assert ({sec: set(parser.options(sec)) for sec in parser.sections()}
            == {sec: set(keys) for sec, keys in cli._INI_KEYS.items()})
