"""The package's import graph: each module imports only the layers below it."""

import ast
from pathlib import Path

import coinvarr

SRC = Path(coinvarr.__file__).parent

# module -> the coinvarr modules it may import; None means any
ALLOWED = {
    "polynomials": set(),
    "symmetric": {"polynomials"},
    "groebner": {"polynomials"},
    "arrangements": {"polynomials"},
    "derivations": {"arrangements", "groebner", "polynomials"},
    "superspace": {"arrangements", "polynomials", "symmetric"},
    "st_algebras": {"arrangements", "derivations", "groebner", "polynomials", "symmetric"},
    "cli": None,
}


def _imports(path):
    """(coinvarr module, imported names) for each coinvarr import in path."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "coinvarr":
                    continue
                module = module.partition(".")[2]
            if module:
                out.append((module.split(".")[0], names))
            else:  # from . import x, or from coinvarr import x
                out.extend((name, []) for name in names)
        elif isinstance(node, ast.Import):
            out.extend(
                (alias.name.split(".")[1], [])
                for alias in node.names
                if alias.name.startswith("coinvarr.")
            )
    return out


def _modules():
    return sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_layer():
    assert {p.stem for p in _modules()} == set(ALLOWED)


def test_modules_import_only_lower_layers():
    for path in _modules():
        allowed = ALLOWED[path.stem]
        if allowed is None:
            continue
        used = {module for module, _ in _imports(path)}
        assert used <= allowed, (path.stem, sorted(used - allowed))


def test_no_private_name_crosses_a_module():
    for path in _modules():
        for module, names in _imports(path):
            private = [name for name in names if name.startswith("_")]
            assert not private, (path.stem, module, private)
