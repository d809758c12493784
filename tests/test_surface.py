"""Guards on the package surface that other code relies on.

tests/oracles.py must stay independent of the implementation it checks, and
perfbench/worker.py imports and patches names of the package directly, so
trimming the surface must not silently break ``perfbench/run.py --trace 1``.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from advbounds.certify import BoundCertificate, search_sup_Km
from advbounds.sums import SumConfig

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
