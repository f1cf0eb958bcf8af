import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import subchains


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
