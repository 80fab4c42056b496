"""Guards over the package source itself."""

import ast
import pathlib
import re

import enrichkit
from enrichkit import finset

SRC = pathlib.Path(enrichkit.__file__).parent

# bench/workloads.py passes caps to these, so they accept it without reading it
UNREAD_CAPS_ACCEPTED = {"enriched.validate_mcat", "mfunctor.validate_mfun_et",
                        "presheaf.yoneda", "presheaf.check_fully_faithful"}


def _unread_caps():
    """module.function for every function that takes a ``caps`` parameter
    and never loads the name."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            if "caps" not in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                continue
            if not any(isinstance(n, ast.Name) and n.id == "caps"
                       and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
                out.add(f"{path.stem}.{node.name}")
    return out


def test_every_caps_parameter_is_read():
    assert _unread_caps() - UNREAD_CAPS_ACCEPTED == set()


def _module_level_caches():
    """module.function for every function defined at module level or in a
    module-level class and decorated with functools.cache or lru_cache."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in defs:
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    out.add(f"{path.stem}.{node.name}")
    return out


def test_no_module_level_memoization():
    # a value derived from a structure lives on that structure (as
    # ``MCat.derived`` does) and dies with it; nested helpers that cache
    # within one call, as in ``mfunctor.action_laws``, are fine
    assert _module_level_caches() == set()


def _made_references():
    """(module, enclosing Class.function or function) for every use of the
    name ``_made`` outside its own definition."""
    out = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "_made"
                    or isinstance(child, ast.Attribute) and child.attr == "_made"):
                out.append((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return out


def test_unchecked_maps_are_built_only_where_the_finset_docstring_argues_it():
    # ``finset._made`` skips the range scan; its module docstring gives the
    # argument per call site, and no other module (no input path) may use it
    named = set(re.findall(r"^- ``([\w.]+)``:", finset.__doc__, re.MULTILINE))
    refs = _made_references()
    assert {module for module, _ in refs} == {"finset"}
    assert {scope for _, scope in refs} == named
