"""The package's import graph: each module imports only the layers below it,
and every public function and class has a caller inside the package."""

import ast
from pathlib import Path

import coinvarr

SRC = Path(coinvarr.__file__).parent

# public names no other package code uses, each with the reason it stays
UNREFERENCED = {
    "braid_arrangement": "the type A Coxeter arrangement, a fixture of the tests",
    "restrict_derivation": "restriction to x_p = 0, tested against is_derivation_of",
    "is_chordal": "southwest graphs are chordal, against an induced-cycle oracle",
    "is_derivation_of": "membership in D(A), the reference for restrict_derivation",
    "s_polynomial": "Buchberger's criterion: S-pairs of a basis reduce to zero",
    "colon_descent_check": "colon descent between nested arrangements, at n <= 3",
}

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


def test_every_public_name_has_a_caller():
    # a use is a Name or Attribute node outside the name's own definition;
    # imports and strings such as __all__ entries do not count
    public = set()
    used = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own[0] != "_":
                public.add(own)
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            used |= names - {own}
    assert sorted(public - used - set(UNREFERENCED)) == []
    assert set(UNREFERENCED) <= public - used


def test_only_groebner_imports_heapq():
    # groebner's normal form is the package's one heap-ordered reducer
    users = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "heapq" for m in modules):
                users.add(path.stem)
    assert users == {"groebner"}
