"""The README's examples name only what the package and the CLI provide."""

import re
import shlex
from pathlib import Path

import pytest

import errortail
from errortail.cli import build_parser
from errortail.experiment import FIGURE_HEADER, desk_scale_config, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> str:
    return "".join(re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S))


def _cli_lines() -> list[list[str]]:
    """Arguments of each ``errortail`` line, continuations joined, comments dropped."""
    lines = _blocks("sh").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in argvs if argv[:1] == ["errortail"]]


def test_python_example_names_exist():
    names = set(re.findall(r"\bet\.(\w+)", _blocks("python")))
    assert names
    assert sorted(name for name in names if not hasattr(errortail, name)) == []


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[0])
def test_cli_example_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"errortail {shlex.join(argv)} does not parse")


def test_config_example_is_the_desk_configuration(tmp_path):
    # the untagged block below the sentence that introduces --config
    pattern = r"--config run\.txt` reads .*?^```\n(.*?)^```"
    block = re.search(pattern, README.read_text(), re.M | re.S)
    path = tmp_path / "run.txt"
    path.write_text(block.group(1))
    assert load_config(path) == desk_scale_config()


def test_figure_header_is_the_written_one():
    headers = re.findall(r"`figure1\.csv` - header `([^`]*)`", README.read_text())
    assert headers == [FIGURE_HEADER]
