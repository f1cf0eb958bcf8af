import ast
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import subchains
from subchains import qarith


def test_every_public_name_is_its_home_module_value():
    for name in subchains.__all__:
        home = f"subchains.{subchains._HOMES[name]}"
        value = getattr(subchains, name)
        assert value is getattr(import_module(home), name)
        assert value.__module__ == home


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from subchains import *", namespace)
    assert all(namespace[name] is getattr(subchains, name) for name in subchains.__all__)
    assert set(subchains.__all__) <= set(dir(subchains))
    assert "__version__" in dir(subchains)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'subchains' has no attribute 'no_such_name'"):
        subchains.no_such_name
    from subchains import lattice

    assert isinstance(lattice, ModuleType) and lattice.__name__ == "subchains.lattice"


def test_import_loads_no_submodule_until_a_name_is_read():
    # A fresh interpreter: `import subchains` loads no submodule, reading a
    # chains name loads chains and qarith only, and `from subchains import
    # lattice` still imports the submodule rather than failing in __getattr__.
    src = Path(subchains.__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import subchains\n"
        "loaded = lambda: ' '.join(sorted(m for m in sys.modules if m.startswith('subchains.')))\n"
        "print(loaded()); subchains.chain_counts; print(loaded())\n"
        "from subchains import lattice; print(lattice.__name__, 'lattice' in vars(subchains))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(src)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["", "subchains.chains subchains.qarith", "subchains.lattice True"]


def test_binomials_left_the_public_names_in_0_3_0():
    assert subchains.__version__ == "0.3.0"
    for name in ("gaussian_binomial", "gaussian_binomial_poly"):
        with pytest.raises(AttributeError):
            getattr(subchains, name)
        assert name not in subchains.__all__ and name not in dir(subchains)
        # Still in qarith: the recurrence calls one, and the benchmark's tracer wraps both.
        kept = getattr(qarith, name)
        assert hasattr(kept, "__wrapped__") and hasattr(kept, "cache_parameters")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_name():
    # Neither `from .m import _x` nor `m._x` for a sibling module m, in any module of the package.
    src = Path(subchains.__file__).resolve().parent
    siblings = {path.stem for path in src.glob("*.py")}
    reads = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                reads += [f"{path.name}:{node.lineno} {node.module}.{a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
                if _private(node.attr):
                    reads.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert reads == []
