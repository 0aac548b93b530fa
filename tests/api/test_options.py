"""EngineOptions: validation, CLI adapter, the one keyword path."""

import argparse
import pickle
import warnings

import pytest

from repro.api import EngineOptions, Session
from repro.lang.parser import parse_program
from repro.rewriting.budget import RewritingBudget

PROGRAM = "R1: professor(X) -> teaches(X, Y)."


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


class TestValidation:
    def test_defaults(self):
        options = EngineOptions()
        assert options.target == "ucq"
        assert options.budget == RewritingBudget.default()

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown rewriting target"):
            EngineOptions(target="prolog")

    def test_non_budget_rejected(self):
        with pytest.raises(TypeError, match="RewritingBudget"):
            EngineOptions(budget=42)

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineOptions().target = "datalog"

    def test_replace(self):
        options = EngineOptions().replace(target="datalog")
        assert options.target == "datalog"
        assert EngineOptions().target == "ucq"

    def test_picklable_for_process_pools(self):
        options = EngineOptions(target="auto", hybrid="auto")
        assert pickle.loads(pickle.dumps(options)) == options


class TestWithDeadline:
    def test_none_is_identity(self):
        options = EngineOptions()
        assert options.with_deadline(None) is options

    def test_tightens_unlimited_budget(self):
        options = EngineOptions().with_deadline(2.5)
        assert options.budget.max_seconds == 2.5

    def test_never_loosens(self):
        tight = EngineOptions(
            budget=RewritingBudget(max_seconds=0.5, strict=False)
        )
        assert tight.with_deadline(10.0) is tight


class TestFromArgs:
    def test_maps_the_cli_engine_group(self):
        args = argparse.Namespace(
            max_depth=7,
            max_cqs=500,
            max_seconds=1.5,
            target="datalog",
        )
        options = EngineOptions.from_args(args)
        assert options.budget == RewritingBudget(
            max_depth=7, max_cqs=500, max_seconds=1.5, strict=False
        )
        assert options.target == "datalog"

    def test_partial_namespace_falls_back_to_defaults(self):
        options = EngineOptions.from_args(argparse.Namespace(max_depth=3))
        assert options.budget.max_depth == 3
        assert options.target == "ucq"

    def test_matches_the_real_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["answer", "p.dlp", "q(X) :- r(X)", "d.dlp", "--target", "auto"]
        )
        assert EngineOptions.from_args(args).target == "auto"

    @pytest.mark.parametrize(
        "argv",
        [["lint", "p.dlp"], ["check", "project.json"]],
        ids=["lint", "check"],
    )
    def test_lint_and_check_budget(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        assert EngineOptions.from_args(args).budget == RewritingBudget(
            max_depth=50, max_cqs=100_000, max_seconds=None, strict=False
        )


class TestLegacyKeywords:
    def test_options_path_never_warns(self, rules):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(rules, options=EngineOptions(target="datalog")).close()

    def test_unknown_keyword_is_a_type_error(self, rules):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Session(rules, tarrget="datalog")
