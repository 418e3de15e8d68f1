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
