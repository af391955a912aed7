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
    "Polynomial.parse": "the round-trip partner of text(), which tests read back",
}

# module -> the coinvarr modules it may import; None means any
ALLOWED = {
    "polynomials": set(),
    "symmetric": {"polynomials"},
    "groebner": {"polynomials"},
    "arrangements": {"polynomials"},
    "derivations": {"arrangements", "groebner", "polynomials"},
    "superspace": {"arrangements", "groebner", "polynomials", "symmetric"},
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


def _names(tree):
    """Every name that tree reads as a Name or an Attribute, and each
    attribute read off a bare name as the pair (that name, attribute)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add((node.value.id, node.attr))
    return names


def _is_classmethod(member):
    return any(
        isinstance(d, ast.Name) and d.id == "classmethod" for d in member.decorator_list
    )


def test_every_public_name_has_a_caller():
    # a use is a Name or Attribute node outside the name's own definition;
    # imports and strings such as __all__ entries do not count.  A public
    # method, listed as Class.method, counts as used when any package code
    # reads an attribute of its name, whatever the object; a public
    # classmethod only when package code reads Class.method, or cls.method
    # inside its class.
    public = {}  # listed name -> the name a caller reads
    used = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                used |= _names(top)
                continue
            if own[0] != "_":
                public[own] = own
            if isinstance(top, ast.FunctionDef):
                used |= _names(top) - {own}
                continue
            for member in top.body:
                name = getattr(member, "name", None)
                if isinstance(member, ast.FunctionDef) and name[0] != "_":
                    qualified = _is_classmethod(member)
                    public[f"{own}.{name}"] = (own, name) if qualified else name
                reads = _names(member) - {name, own, (own, name), ("cls", name)}
                pairs = {r for r in reads if isinstance(r, tuple)}
                used |= reads | {(own, attr) for base, attr in pairs if base == "cls"}
            for node in top.bases + top.decorator_list:
                used |= _names(node)
    unreferenced = {listed for listed, name in public.items() if name not in used}
    assert sorted(unreferenced - set(UNREFERENCED)) == []
    assert set(UNREFERENCED) <= unreferenced


def _top_level_imports(path):
    """The top-level package of every module that path imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module or "").split(".")[0])
    return out


def test_no_module_imports_os():
    # a run's whole configuration is its command line, not the environment
    users = {p.stem for p in SRC.glob("*.py") if "os" in _top_level_imports(p)}
    assert users == set()


def test_only_polynomials_imports_functools():
    # every memo is a polynomials.suite_cache, emptied when a suite ends
    users = {p.stem for p in SRC.glob("*.py") if "functools" in _top_level_imports(p)}
    assert users == {"polynomials"}


def test_only_groebner_imports_heapq():
    # groebner's normal form is the package's one heap-ordered reducer
    users = {p.stem for p in SRC.glob("*.py") if "heapq" in _top_level_imports(p)}
    assert users == {"groebner"}
