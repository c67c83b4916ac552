"""The README's library examples run, its CLI examples parse, the package
exports what it lists, and every backticked `module.name` of coexlink in the
README, the sources, the scripts and the tests resolves."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import click
import pytest

import coexlink
from coexlink import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SCRIPTS = README.parent / "scripts"
# This module is left out: its stale-name check names a deleted function.
TESTS = sorted(set(Path(__file__).resolve().parent.glob("*.py")) - {Path(__file__).resolve()})


def test_readme_python_blocks_run():
    # the blocks build on each other, so they run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python example"
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def _readme_cli_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [words[1:] for words in lines if words[:1] == ["coexlink"]]


def _parse_command(args):
    """Parse a command line as click would run it, without running it."""
    # the group has no options of its own, so the subcommand starts the line
    group = cli.main.make_context("coexlink", list(args))
    name, command, rest = cli.main.resolve_command(group, list(args))
    command.make_context(name, rest, parent=group)


@pytest.mark.parametrize("args", _readme_cli_lines(), ids=lambda args: args[0])
def test_readme_cli_lines_parse(args):
    _parse_command(args)


def test_cli_parse_check_catches_unknown_flags():
    assert len(_readme_cli_lines()) == 4
    with pytest.raises(click.NoSuchOption):
        _parse_command(["per", "--preset", "alpha_lt_0.1", "-o", "per.csv", "--epsilon", "1e-9"])


def test_every_export_resolves():
    missing = [name for name in coexlink.__all__ if not hasattr(coexlink, name)]
    assert missing == []


SOURCE = Path(coexlink.__file__).resolve().parent
MODULES = {info.name for info in pkgutil.iter_modules([str(SOURCE)])}


def _dotted_names(text):
    """Backticked dotted names whose head is coexlink or one of its modules,
    e.g. `ctd.slot_tail` or `coexlink.per.QN_COEFFS`."""
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return [name.removeprefix("coexlink.") for name in names
            if name.split(".")[0] in MODULES | {"coexlink"}]


def _unresolved(names):
    missing = []
    for name in names:
        module, *attributes = name.split(".")
        target = importlib.import_module(f"coexlink.{module}")
        for attribute in attributes:
            target = getattr(target, attribute, None)
        if target is None:
            missing.append(name)
    return missing


@pytest.mark.parametrize("path", [README, *sorted(SOURCE.glob("*.py")), *sorted(SCRIPTS.glob("*.py")),
                                  *TESTS],
                         ids=lambda p: p.name)
def test_dotted_names_resolve(path):
    # README and every module's, script's and test's docstrings and comments
    # name code as `module.name`; a rename or deletion must take the name along
    names = _dotted_names(path.read_text(encoding="utf-8"))
    assert _unresolved(names) == []


def test_dotted_name_check_catches_a_stale_name():
    names = _dotted_names("see `specfun.scaled_bessel_k01`, `ctd.slot_tail`, `math.fsum`, "
                          "`coexlink.per.QN_COEFFS` and `job.snr_db`")
    assert names == ["specfun.scaled_bessel_k01", "ctd.slot_tail", "per.QN_COEFFS"]
    assert _unresolved(names) == ["specfun.scaled_bessel_k01"]
