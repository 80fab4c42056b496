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


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _module_level_definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and constant; dunder names such as ``__version__`` are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        out += [(name, first, node.end_lineno) for name in names
                if not (name.startswith("__") and name.endswith("__"))]
    return out


def _bound(function):
    """The names a function binds itself: its parameters and the names it
    stores to outside its nested functions."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    work = list(ast.iter_child_nodes(function))
    while work:
        node = work.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            work += ast.iter_child_nodes(node)
    return names


def _free_loads(tree):
    """(line, name) of every ``Name`` load that no enclosing function binds."""
    out = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, local | _bound(child))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in local:
                    out.append((child.lineno, child.id))
            else:
                visit(child, local)

    visit(tree, frozenset())
    return out


def _unread_definitions():
    """module.name for every module-level definition of the package with no
    reader in src/ (outside its own definition), demos/ or bench/.  A reader
    is a ``Name`` load that no enclosing function binds, a ``from ...
    import`` of the name or a ``module.name`` attribute; an ``__init__``
    export is an import."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for folder in ("demos", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    reads = {}  # name -> [(module the read is in, or None, line)]
    for module, tree in [*modules.items(), *((None, t) for t in others)]:
        for line, name in _free_loads(tree):
            reads.setdefault(name, []).append((module, line))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append((None, 0))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                reads.setdefault(node.attr, []).append((None, 0))
    return {f"{module}.{name}"
            for module, tree in modules.items()
            for name, first, last in _module_level_definitions(tree)
            if all(where == module and first <= line <= last
                   for where, line in reads.get(name, []))}


def test_every_module_level_definition_has_a_reader_outside_the_tests():
    # test-only fixtures and readings live in tests/instances.py; a name the
    # package, the demos and the benchmark never read is dead code there
    assert _unread_definitions() == set()


def _imports_through_the_tests_package():
    """file:line for every import of ``tests`` or ``tests.*`` in a test module."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    out = []
    for path in sorted([*(repo / "tests").glob("*.py"), *(repo / "bench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            out += [f"{path.parent.name}/{path.name}:{node.lineno}" for name in names
                    if name == "tests" or name.startswith("tests.")]
    return out


def test_no_test_module_imports_through_the_tests_package():
    # the test directories are not packages, so a sibling test module is
    # imported by its own name (as ``instances`` is); ``tests.X`` resolves
    # only with the repository root on sys.path, which bare pytest lacks
    assert _imports_through_the_tests_package() == []
