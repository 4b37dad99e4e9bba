"""Print the package's settable surface: the function parameters that
have a default, the options the CLI declares and the public names.

Reads the source with ``ast`` (standard library only) and imports
nothing from the package, so it counts any tree's source as well:

    python tools/option_count.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/ltmag.  A parameter with a default is one
value a caller can set without having to; an ``add_argument`` call in
``cli.py`` is one command-line option; the public names are
``ltmag.__all__``, which ``__init__.py`` derives from its imports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ltmag"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def defaulted_parameters(tree: ast.Module) -> int:
    """Parameters with a default, positional or keyword-only, of every
    function and method in ``tree``."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def cli_options(tree: ast.Module) -> int:
    """``add_argument`` calls in ``tree``."""
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               for node in ast.walk(tree))


def public_names(tree: ast.Module) -> int:
    """``len(__all__)`` of a package ``__init__`` whose ``__all__`` is a
    list of some string literals and of every name its relative imports
    bind that does not start with "_"."""
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    listed = {elt.value
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.List)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)
              for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return len(listed | {name for name in imported
                         if not name.startswith("_")})


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    modules = sorted(package.glob("*.py"))
    print("defaulted parameters:",
          sum(defaulted_parameters(_tree(path)) for path in modules))
    print("cli options:", cli_options(_tree(package / "cli.py")))
    print("public names:", public_names(_tree(package / "__init__.py")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
