"""The public API surface, pinned.

``repro.api.__all__`` is a compatibility contract: additions are fine
(update the snapshot deliberately), removals and renames are breaking
changes this test makes loud.  The removed legacy entry points must
stay removed: :class:`repro.Session` is the one answering surface.
"""

import dataclasses
import importlib
import warnings

import pytest

import repro
import repro.api
import repro.chase
import repro.obda
import repro.rewriting
from repro.api import EngineOptions
from repro.cli import main
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program
from repro.serve import TenantRegistry

PROGRAM = "R1: professor(X) -> teaches(X, Y)."
DATA = "professor(ada)."

API_SURFACE = [
    "AnswerPlan",
    "BatchResult",
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "CacheStats",
    "EngineOptions",
    "PreparedQuery",
    "RewritingCache",
    "Session",
    "resolve_workers",
]


def test_api_all_snapshot():
    assert list(repro.api.__all__) == API_SURFACE


def test_api_all_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_top_level_reexports():
    for name in ("Session", "PreparedQuery", "RewritingCache", "BatchResult"):
        assert getattr(repro, name) is getattr(repro.api, name)
        assert name in repro.__all__


class TestDeprecatedShims:
    def test_removed_entry_points_stay_removed(self, tmp_path, capsys):
        assert not hasattr(repro, "OBDASystem")
        assert "OBDASystem" not in repro.__all__
        assert not hasattr(repro.obda, "OBDASystem")
        assert "OBDASystem" not in repro.obda.__all__
        for name in ("rewrite", "answer", "answer_sql"):
            assert not hasattr(repro.FORewritingEngine, name), name
        rules = parse_program(PROGRAM)
        with pytest.raises(TypeError):
            repro.Session(rules, target="datalog")
        # The precompiled-workload store: the persistent cache behind
        # Session(cache_dir=...) plus warm_up() does its job.
        for name in ("RewritingStore", "StoredRewriting", "precompile_workload"):
            assert not hasattr(repro.rewriting, name), name
            assert name not in repro.rewriting.__all__
        # The parallel minimizer and its knobs.
        fields = {field.name for field in dataclasses.fields(EngineOptions)}
        assert "minimize_workers" not in fields
        assert "minimize_mode" not in fields
        # The backend registry and its knob: SQLiteBackend is the one
        # backend type, and relevance filtering always runs.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.data.backend")
        with pytest.raises(TypeError):
            repro.Session(rules, backend_factory="sqlite")
        with pytest.raises(TypeError):
            TenantRegistry(backend_factory="sqlite")
        assert "filter_relevant" not in fields
        # The Section-7 strategy tree: Session is the one planner.
        for name in ("answer_with_best_strategy", "Strategy", "StrategyReport"):
            assert not hasattr(repro.obda, name), name
            assert name not in repro.obda.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obda.strategy")
        assert not hasattr(repro.chase, "position_dependency_graph")
        assert "position_dependency_graph" not in repro.chase.__all__
        program = tmp_path / "p.dlp"
        program.write_text(PROGRAM)
        argv = ["rewrite", str(program), "q(X) :- teaches(X, Y)"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--minimize-workers", "2"])
        assert exit_info.value.code == 2
        assert "--minimize-workers" in capsys.readouterr().err

    def test_session_itself_never_warns(self):
        rules = parse_program(PROGRAM)
        data = Database(parse_database(DATA))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.Session(rules, data) as session:
                session.answer("q(X) :- teaches(X, Y)")
                session.sql_for("q(X) :- teaches(X, Y)")
