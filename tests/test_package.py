"""The package's public surface: each name resolves, on access, to its home module's object."""

import importlib
import subprocess
import sys

import pytest

import bipolarsoft

# The public surface, by home module.
PUBLIC = {
    "codec": ["dump", "from_document", "load", "parse", "serialize", "to_document"],
    "core": ["BipolarSoftSet", "ensure_same_space"],
    "decision": ["DecisionResult", "ScoreRow", "decide", "render_scores_csv",
                 "render_scores_text", "scores", "scores_document"],
    "laws": ["Law", "LawReport", "catalogue", "check_law", "enumerate_bss", "exhaustive_tuples",
             "gen_bss", "get_law", "random_tuples", "recheck", "run_catalogue", "standard_space"],
    "products": ["and_product", "or_product", "product_space"],
    "space": ["ParameterSpace"],
    "table": ["CellValue", "TabularForm", "from_table", "render_table_csv", "render_table_text",
              "table_document", "to_table"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_the_public_names_are_unchanged():
    assert bipolarsoft.__all__ == sorted([*HOME, "errors"])


@pytest.mark.parametrize("name", sorted(HOME))
def test_every_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"bipolarsoft.{HOME[name]}")
    value = getattr(bipolarsoft, name)
    assert value is getattr(home, name)
    assert value.__module__ == home.__name__


def test_errors_is_the_errors_module():
    assert bipolarsoft.errors is importlib.import_module("bipolarsoft.errors")


def test_dir_and_star_import_cover_every_public_name():
    assert set(bipolarsoft.__all__) <= set(dir(bipolarsoft))
    assert "__version__" in dir(bipolarsoft)
    namespace = {}
    exec("from bipolarsoft import *", namespace)
    for name in bipolarsoft.__all__:
        assert namespace[name] is getattr(bipolarsoft, name)


@pytest.mark.parametrize("name", ["no_such_name", "_json_text", "cli_main"])
def test_an_unknown_name_raises_the_standard_attribute_error(name):
    with pytest.raises(AttributeError) as err:
        getattr(bipolarsoft, name)
    assert str(err.value) == f"module 'bipolarsoft' has no attribute {name!r}"
    assert not hasattr(bipolarsoft, name)


def test_a_bare_submodule_resolves_after_a_plain_import():
    assert bipolarsoft.laws is importlib.import_module("bipolarsoft.laws")
    # in a fresh process, where nothing has imported ``bipolarsoft.laws`` yet
    proc = subprocess.run(
        [sys.executable, "-c", "import bipolarsoft; print(bipolarsoft.laws.__name__)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "bipolarsoft.laws\n", "")


def test_a_name_patched_on_its_module_is_the_one_the_package_returns(monkeypatch):
    original = bipolarsoft.parse

    def patched(text):
        return original(text)

    monkeypatch.setattr(bipolarsoft.codec, "parse", patched)
    assert bipolarsoft.parse is patched
    monkeypatch.undo()
    assert bipolarsoft.parse is original is bipolarsoft.codec.parse
