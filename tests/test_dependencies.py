"""``repro`` imports only the packages ``pyproject.toml`` declares.

Every module of the package is imported in a fresh interpreter, and
the third-party top-level packages that appear in ``sys.modules`` must
all belong to a distribution named in ``[project].dependencies``.  The
check holds even where an undeclared package happens to be installed.
"""

import json
import os
import re
import subprocess
import sys
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# The snapshot is taken before the first repro import: site hooks
# (``.pth`` files) can preload packages that repro never asked for.
# ``repro.__main__`` is skipped because importing it runs the CLI.
_PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        __import__(module.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"repro"})))
"""


def _canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared() -> set[str]:
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    return {
        _canonical(re.match(r"[A-Za-z0-9._-]+", requirement).group())
        for requirement in project["dependencies"]
    }


def _imported_top_level() -> list[str]:
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_imports_only_declared_dependencies():
    declared = _declared()
    # Top-level names no installed distribution provides are runtime
    # entries, not packages: multiprocessing's ``__mp_main__`` alias, or
    # the helper modules compiled extensions register (``cython_runtime``).
    owners = packages_distributions()
    undeclared = sorted(
        name
        for name in _imported_top_level()
        if name in owners
        and not {_canonical(dist) for dist in owners[name]} & declared
    )
    assert not undeclared, (
        f"repro imports {undeclared}, which pyproject.toml's "
        f"[project].dependencies ({sorted(declared)}) does not declare"
    )
