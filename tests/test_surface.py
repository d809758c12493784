"""Guards on the package surface that other code relies on.

tests/oracles.py must stay independent of the implementation it checks, and
perfbench/worker.py imports and patches names of the package directly, so
trimming the surface must not silently break ``perfbench/run.py --trace 1``.
"""

import argparse
import ast
import dataclasses
import importlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import advbounds
import advbounds.certify
from advbounds.certify import BoundCertificate, search_sup_Km
from advbounds.cli import _build_parser
from advbounds.kernel import EnclosureWidthError
from advbounds.sums import Interval, SumConfig

ROOT = Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_oracles_do_not_import_advbounds():
    imported = set()
    for node in ast.walk(_tree(ROOT / "tests" / "oracles.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "no imports found"
    assert not [m for m in imported if m.split(".")[0] == "advbounds"]


def _import_from(module, name):
    """What ``from module import name`` binds, or None where it fails."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None


def _perfbench_references():
    """(object, attribute) pairs perfbench/worker.py takes from advbounds:
    names it imports, attributes it reads off an imported advbounds module or
    class, and (owner, "attr") pairs it patches.  An import that fails is
    returned as (module name, attribute)."""
    tree = _tree(ROOT / "perfbench" / "worker.py")
    bound = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[
            0
        ] == "advbounds":
            for alias in node.names:
                obj = _import_from(node.module, alias.name)
                if obj is None:
                    refs.append((node.module, alias.name))
                else:
                    refs.append((importlib.import_module(node.module), alias.name))
                    bound[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound and isinstance(node.ctx, ast.Load):
                refs.append((bound[node.value.id], node.attr))
        pairs = []
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            pairs.append(node.elts)
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            pairs.append(node.args[:2])
        for owner, attr in pairs:
            if (isinstance(owner, ast.Name) and owner.id in bound
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                refs.append((bound[owner.id], attr.value))
    return refs


def test_perfbench_worker_names_resolve():
    refs = _perfbench_references()
    names = {attr for _, attr in refs}
    # the stages the trace patches, and what the cli and fields modes call
    assert {"create", "remainder_extrema", "search_sup_Km", "enumerate_ball",
            "enumerate_canonical", "K_m", "certify_bounds", "main",
            "certificate_report", "advect"} <= names
    missing = [
        f"{getattr(obj, '__name__', obj)}.{attr}"
        for obj, attr in refs if not hasattr(obj, attr)
    ]
    assert not missing, f"perfbench/worker.py uses missing names: {missing}"


def test_perfbench_builds_the_certificate_with_every_field():
    """perfbench's staged mode builds a BoundCertificate by keyword, which a
    new or renamed field would break only in a traced run."""
    func = next(
        node for node in ast.walk(_tree(ROOT / "perfbench" / "worker.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "staged_certificate"
    )
    calls = [
        node for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "BoundCertificate"
    ]
    assert len(calls) == 1 and not calls[0].args
    keywords = {kw.arg for kw in calls[0].keywords}
    assert keywords == {f.name for f in dataclasses.fields(BoundCertificate)}


def test_search_returns_what_perfbench_unpacks():
    """perfbench's staged mode unpacks search_sup_Km into three values and
    compares the first two, a float and a tuple, with the certificate's."""
    found = search_sup_Km(SumConfig.create(3, 2, 4.0), 8.0)
    assert type(found) is tuple and len(found) == 3
    assert type(found[0]) is float and type(found[1]) is tuple


def test_top_level_names():
    """The top level holds the certificate and its two closed-form helpers;
    everything else is imported from its submodule."""
    assert sorted(advbounds.__all__) == [
        "BoundCertificate", "K_minus", "ParameterError", "certify_bounds"]
    for name in advbounds.__all__:
        assert getattr(advbounds, name) is getattr(advbounds.certify, name)


#: The (subcommand, option) pairs the command line accepts, help aside.
CLI_SETTABLE_VALUES = {
    *(("certify", opt) for opt in ("--d", "--rho", "--n", "--verbose", "--format")),
    *(("table", opt) for opt in ("--n", "--verbose")),
    *(("witness", opt) for opt in ("--d", "--n", "--alpha", "--alpha-vec",
                                   "--beta", "--beta-vec", "--dump-fields")),
}


def _cli_options():
    """{subcommand: [option actions]} of the command line, help aside."""
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [a.dest for a in parser._actions] == ["help", "subcommand"]
    return {
        cmd: [action for action in p._actions
              if action.option_strings and not isinstance(action, argparse._HelpAction)]
        for cmd, p in sub.choices.items()
    }


def test_cli_settable_values():
    """Each value a user can set, by its longest option string: a new knob
    is a one-line change here."""
    settable = {
        (cmd, max(action.option_strings, key=len))
        for cmd, actions in _cli_options().items() for action in actions
    }
    assert settable == CLI_SETTABLE_VALUES
    assert len(settable) == 14


def _readme_section(title):
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_command_line():
    """{subcommand: its bullet} from README's "Command line" section, and
    the whole section."""
    section = _readme_section("Command line")
    bullets = re.findall(r"^\* `([a-z]+)`: (.*?)(?=\n\* |\n\n)", section, re.M | re.S)
    return {cmd: " ".join(bullet.split()) for cmd, bullet in bullets}, section


def test_readme_command_line_lists_every_option():
    """README's bullet for each subcommand names each of its options, with
    the choices it accepts, and no option it does not accept."""
    bullets, section = _readme_command_line()
    options = _cli_options()
    assert sorted(bullets) == sorted(options)
    for cmd, actions in options.items():
        accepted = {opt for action in actions for opt in action.option_strings}
        named = set(re.findall(r"`(--?[\w-]+)", bullets[cmd]))
        assert named <= accepted, (cmd, named - accepted)
        for action in actions:
            assert named & set(action.option_strings), (cmd, action.option_strings)
            if action.choices:
                (opt,) = named & set(action.option_strings)
                assert f"`{opt} {{{','.join(action.choices)}}}`" in bullets[cmd]
    assert "--out" not in section and "csv" not in section.lower()


def test_readme_library_values(monkeypatch):
    """Every `# value` comment in README "Library" is what its print shows.
    The certificate's values come from the d3n2 report of
    perfbench/reference.json, not a new certificate run; K_m, Z_n and
    delta_K at rho 10 run fresh."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    report = reference["d=3 n=2 rho=20"]

    def certify_bounds(d, n, rho):
        assert (d, n, rho) == (3, 2, 20.0)
        return SimpleNamespace(
            K_plus=report["k_plus"], K_minus=report["k_minus"],
            sup_Km=report["sup_km"], argmax=tuple(report["argmax"]),
            sup_KK_interval=Interval(report["sup_kk_lower"], report["sup_kk_upper"]))

    monkeypatch.setattr(advbounds, "certify_bounds", certify_bounds)
    blocks = re.findall(r"```python\n(.*?)```", _readme_section("Library"), re.S)
    checked = 0
    for block in blocks:
        shown = []
        exec(block, {"print": lambda *args: shown.append(" ".join(map(str, args)))})
        assert shown == re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        checked += len(shown)
    assert checked == 5


def _raised_exceptions():
    """{exception class: modules of src/advbounds that raise it by name}."""
    raised = {}
    for path in sorted((ROOT / "src" / "advbounds").glob("*.py")):
        module = importlib.import_module(f"advbounds.{path.stem}".replace(".__init__", ""))
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                cls = eval(ast.unparse(exc), vars(module))
                raised.setdefault(cls, set()).add(path.stem)
    return raised


def test_every_refusal_is_a_value_error():
    """The command line maps ValueError to exit 1 in its one handler, so
    every exception the package raises is a ValueError, apart from three:
    EnclosureWidthError, raised only in kernel.py by the remainder grid,
    which certify_bounds does not call, so it has no handler;
    InconclusiveSearchRadius, raised nowhere here; and
    argparse.ArgumentTypeError, raised only in the cli's type= parsers,
    whose parser turns it into a usage error.  A new exit path cannot
    appear unnoticed."""
    raised = _raised_exceptions()
    others = {cls: mods for cls, mods in raised.items() if not issubclass(cls, ValueError)}
    assert others == {EnclosureWidthError: {"kernel"},
                      argparse.ArgumentTypeError: {"cli"}}
    assert advbounds.certify.InconclusiveSearchRadius not in raised
    handlers = {
        func.name: [ast.unparse(h.type) for h in ast.walk(func)
                    if isinstance(h, ast.ExceptHandler)]
        for name in ("certify", "cli")
        for func in ast.walk(_tree(ROOT / "src" / "advbounds" / f"{name}.py"))
        if isinstance(func, ast.FunctionDef) and func.name in ("certify_bounds", "main")
    }
    assert handlers == {"certify_bounds": [], "main": ["ValueError"]}
