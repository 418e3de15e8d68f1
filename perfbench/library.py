"""Import the calculator from the checkout's own ``src/`` tree.

The benchmark never relies on an installed copy: it puts ``src`` first on
``sys.path`` and refuses to run when the package is not there.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MODULES = ("abelian", "faces", "families", "conormal", "obstruction", "documents", "cli")


class LibraryMissing(RuntimeError):
    """The checkout has no ``src/cornerindex`` package to measure."""


def import_fresh() -> types.SimpleNamespace:
    """Drop any loaded copy of the package and import it again.

    Returns a namespace holding the package and each module, so that set-up
    can be repeated (and timed) in one process.
    """
    if not (SRC / "cornerindex" / "__init__.py").is_file():
        raise LibraryMissing(f"no cornerindex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "cornerindex" or n.startswith("cornerindex.")]:
        del sys.modules[name]
    package = importlib.import_module("cornerindex")
    if Path(package.__file__).resolve().parent != (SRC / "cornerindex").resolve():
        raise LibraryMissing(f"cornerindex resolved to {package.__file__}, not the checkout")
    ns = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"cornerindex.{name}"))
    return ns
