"""The documented examples stay true: the doctests of every `cornerindex`
module and the README's library example, with the values it prints."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cornerindex
import cornerindex.abelian
from cornerindex.abelian import FGAbelianGroup
from cornerindex.families import EmbeddabilityVerdict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_abelian_doctests_pass():
    result = doctest.testmod(cornerindex.abelian)
    assert result.attempted > 0
    assert result.failed == 0


# abelian has the test above, which also requires its examples to exist
@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(cornerindex.__path__) if m.name != "abelian")
)
def test_module_doctests_pass(name):
    assert doctest.testmod(importlib.import_module(f"cornerindex.{name}")).failed == 0


def test_readme_library_example_prints_what_it_says():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    printed = []
    exec(code, {"print": lambda *args: printed.append(args)})
    z_z4 = FGAbelianGroup.from_cyclics([0, 4])
    assert printed == [
        ((z_z4, z_z4),),
        (EmbeddabilityVerdict(embeddable=False, witness="c13"),),
        (True,),
    ]


_MODULE_REFERENCE = re.compile(
    r"\b(abelian|conormal|faces|families|obstruction|documents|cli)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?"
)
_CLASS_REFERENCE = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")
_PRIVATE_REFERENCE = re.compile(r"(?<![\w.])(_[A-Za-z]\w*)(?:\.([A-Za-z_]\w*))?")


def _has(owner, name: str) -> bool:
    return hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})


def test_readme_names_resolve():
    # every backticked `module.name` of the package, `Class.attr` of an
    # exported class and bare private `_name` or `_Name.attr` of a package
    # module names something that exists, so a deleted or renamed name
    # cannot outlive its code in the README
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    exported = {name: value for name, value in vars(cornerindex).items() if isinstance(value, type)}
    modules = [importlib.import_module(f"cornerindex.{m.name}") for m in pkgutil.iter_modules(cornerindex.__path__)]
    checked, unresolved = 0, []
    for span in spans:
        for module, name, attr in _MODULE_REFERENCE.findall(span):
            owner = importlib.import_module(f"cornerindex.{module}")
            checked += 1
            if not _has(owner, name) or (attr and not _has(getattr(owner, name), attr)):
                unresolved.append(span)
        for cls, attr in _CLASS_REFERENCE.findall(span):
            if cls in exported:
                checked += 1
                if not _has(exported[cls], attr):
                    unresolved.append(span)
        for name, attr in _PRIVATE_REFERENCE.findall(span):
            checked += 1
            if not any(_has(m, name) and (not attr or _has(getattr(m, name), attr)) for m in modules):
                unresolved.append(span)
    assert checked >= 10 and unresolved == [], unresolved


_ROLE_REFERENCE = re.compile(r":(func|class|meth):`([^`]+)`")


def test_docstring_references_resolve():
    # every :func:, :class: and :meth: reference in a package module's
    # source resolves in that module: as a name, as `Class.attr`, or, for a
    # bare :meth:, as an attribute of a class the module defines; so a
    # deleted helper cannot live on in the docstrings
    checked, unresolved = 0, []
    for info in pkgutil.iter_modules(cornerindex.__path__):
        module = importlib.import_module(f"cornerindex.{info.name}")
        names = vars(module)
        classes = [v for v in names.values() if isinstance(v, type) and v.__module__ == module.__name__]
        for role, target in _ROLE_REFERENCE.findall(Path(module.__file__).read_text(encoding="utf-8")):
            head, dot, attr = target.partition(".")
            if dot:
                found = head in names and _has(names[head], attr)
            elif role == "meth":
                found = any(_has(cls, head) for cls in classes)
            else:
                found = head in names
            checked += 1
            if not found:
                unresolved.append(f"{info.name}: :{role}:`{target}`")
    assert checked >= 20 and unresolved == [], unresolved
