"""Every key a config may hold is named in README.md.

``cli.KEYS`` is the one list of config keys: the CLI refuses any other.  A
key the README does not name is a knob no reader of the documentation sets
on purpose.  README.md names a key when it holds its dotted path in
backticks.
"""

from pathlib import Path

from pqcartan.cli import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_config_key_the_cli_reads_is_named_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    unnamed = sorted(k for k in KEYS if f"`{k}`" not in readme)
    assert unnamed == []
