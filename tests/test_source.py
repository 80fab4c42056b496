"""Guards over the package source itself."""

import ast
import pathlib

import enrichkit

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
