import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import elprov

MODULES = sorted(m.name for m in pkgutil.iter_modules(elprov.__path__, "elprov."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_submodules_are_not_shadowed():
    # a package attribute named like a submodule must stay the submodule
    assert "elprov.relevance" in MODULES
    for name in MODULES:
        assert importlib.import_module(name) is getattr(elprov, name.split(".")[1])


def test_the_cli_imports_no_dataclasses_typing_or_inspect():
    # -S: a site .pth file may import typing itself; these three cost a
    # one-question command about half of its start-up
    check = (
        "import sys, elprov.cli\n"
        "print(sorted({'dataclasses', 'typing', 'inspect'} & sys.modules.keys()))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-S", "-c", check], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_a_plain_text_command_imports_no_json():
    # only --json needs json, so a plain-text entail does without its import
    check = (
        "import sys\n"
        "from elprov.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'json' in sys.modules)\n"
    )
    golden = Path(__file__).resolve().parent / "golden"
    argv = ["entail", "-i", "mayor.elp", "--kind", "assertion", "--axiom", "ca Mayor(Brugnaro)", "--prov", "v1*v3*v4"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-S", "-c", check, *argv], cwd=golden, env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "not entailed\n1 False\n"), done.stderr
