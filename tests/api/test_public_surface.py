"""The public API surface, pinned.

``repro.api.__all__`` is a compatibility contract: additions are fine
(update the snapshot deliberately), removals and renames are breaking
changes this test makes loud.  The removed legacy entry points must
stay removed: :class:`repro.Session` is the one answering surface.
"""

import dataclasses
import importlib
import inspect
import warnings

import pytest

import repro
import repro.api
import repro.api.cache
import repro.audit
import repro.audit.engine
import repro.chase
import repro.checkers
import repro.checkers.passes
import repro.cli
import repro.hybrid.maintain
import repro.lint
import repro.lint.engine
import repro.lint.formats
import repro.obda
import repro.rewriting
from repro.api import EngineOptions
from repro.cli import main
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program
from repro.rewriting.budget import RewritingBudget
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
        # The three pass registries: lint, check and audit are three
        # values of one repro.lint.Pipeline.
        removed = {
            (repro.lint, repro.lint.engine): (
                "PassSpec", "PASS_REGISTRY", "SECONDARY_CODES",
                "all_codes", "code_names",
            ),
            (repro.checkers, repro.checkers.passes): (
                "CheckSpec", "CHECK_REGISTRY", "all_check_codes",
                "check_code_names", "render_check",
            ),
            (repro.audit, repro.audit.engine): (
                "AuditSpec", "AUDIT_REGISTRY", "AUDIT_SECONDARY_CODES",
                "AUDIT_STAGES", "AuditConfig", "all_audit_codes",
                "audit_code_names",
            ),
        }
        for modules, names in removed.items():
            for module in modules:
                for name in names:
                    assert not hasattr(module, name), (module, name)
                    assert name not in getattr(module, "__all__", ()), name
        # The per-kind compile-and-persist copies: one engine memo and
        # compile method, one cache table with one get and one put.
        for name in ("_decode_result", "_encode_datalog", "_decode_datalog",
                     "_parse_rules"):
            assert not hasattr(repro.api.cache, name), name
        for name in ("get_datalog", "put_datalog", "get_core", "put_core",
                     "_read", "_write", "_delete"):
            assert not hasattr(repro.api.RewritingCache, name), name
        for name in ("get_datalog", "put_datalog"):
            assert not hasattr(repro.api.cache.EngineTier, name), name
        for name in ("_rewrite_datalog", "_compile_datalog", "_single_flight"):
            assert not hasattr(repro.FORewritingEngine, name), name
        engine = repro.FORewritingEngine(rules)
        for name in ("_cache", "_datalog_cache", "_datalog_inflight"):
            assert not hasattr(engine, name), name
        lint_fields = {f.name for f in dataclasses.fields(repro.lint.LintConfig)}
        assert "default_depth" not in lint_fields
        check_fields = {
            f.name for f in dataclasses.fields(repro.checkers.CheckConfig)
        }
        assert "stages" not in check_fields
        assert "config" not in inspect.signature(repro.lint.preflight).parameters
        for render in (repro.lint.formats.render, repro.lint.formats.render_sarif):
            parameters = inspect.signature(render).parameters
            assert "names" not in parameters and "tool" not in parameters
        # The core deletes a dead firing instead of flagging it invalid.
        firing_fields = {
            f.name for f in dataclasses.fields(repro.hybrid.maintain.Firing)
        }
        assert "valid" not in firing_fields
        count = repro.hybrid.maintain.MaterializedCore.firing_count
        assert "valid_only" not in inspect.signature(count).parameters
        program = tmp_path / "p.dlp"
        program.write_text(PROGRAM)
        argv = ["rewrite", str(program), "q(X) :- teaches(X, Y)"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--minimize-workers", "2"])
        assert exit_info.value.code == 2
        assert "--minimize-workers" in capsys.readouterr().err

    def test_rechase_fallback_stays_removed(self, tmp_path, capsys):
        # The core maintains every delta incrementally: no threshold,
        # no full re-chase, no result that means "reload wholesale".
        fields = [field.name for field in dataclasses.fields(EngineOptions)]
        assert fields == ["budget", "target", "hybrid"]
        with pytest.raises(TypeError):
            EngineOptions(hybrid_threshold=0.5)
        rules = parse_program(PROGRAM)
        with pytest.raises(TypeError):
            repro.hybrid.MaterializedCore(rules, [], threshold=0.5)
        assert not hasattr(repro.hybrid, "DEFAULT_THRESHOLD")
        assert "DEFAULT_THRESHOLD" not in repro.hybrid.__all__
        assert not hasattr(repro.hybrid.maintain, "MIN_DELTA_FLOOR")
        result_fields = {
            f.name for f in dataclasses.fields(repro.hybrid.MaintenanceResult)
        }
        assert "full_rechase" not in result_fields
        program = tmp_path / "p.dlp"
        program.write_text(PROGRAM)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(program), "--hybrid-threshold", "0.5"])
        assert exit_info.value.code == 2
        assert "--hybrid-threshold" in capsys.readouterr().err

    def test_pruning_and_preflight_stay_removed(self):
        # The in-memory evaluator skips a disjunct over an empty
        # relation on every session, so no option, no per-handle
        # pruning state and no second SQL text path remain; RL105 and
        # RL106 report what the pre-flight and pruning acted on.
        with pytest.raises(TypeError):
            EngineOptions(prune_empty=True)
        with pytest.raises(TypeError):
            EngineOptions(preflight_estimate=True)
        rules = parse_program(PROGRAM)
        with pytest.raises(TypeError):
            repro.FORewritingEngine(rules, preflight_estimate=True)
        for name in ("prune_empty", "pruning_relations"):
            assert not hasattr(repro.Session, name), name
        assert not hasattr(repro.PreparedQuery, "pruned")
        for name in ("prune_statically_empty", "PruneResult",
                     "RewritingBlowupWarning"):
            assert not hasattr(repro.checkers, name), name
            assert name not in repro.checkers.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.checkers.pruning")
        assert "supported_relations" in repro.checkers.__all__
        for name in ("sql_for", "_preflight"):
            assert not hasattr(repro.FORewritingEngine, name), name

    def test_strict_budget_stays_removed(self):
        # The answer plan alone decides and reports exactness: no
        # budget raises from inside rewrite(), the engine only
        # compiles, and `repro rewrite` takes the one Session path.
        with pytest.raises(TypeError):
            RewritingBudget(strict=True)
        fields = [field.name for field in dataclasses.fields(RewritingBudget)]
        assert fields == ["max_depth", "max_cqs", "max_seconds"]
        assert not hasattr(repro.FORewritingEngine, "_check_complete")
        assert not hasattr(repro.cli, "_rewrite_with_target")

    def test_session_itself_never_warns(self):
        rules = parse_program(PROGRAM)
        data = Database(parse_database(DATA))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.Session(rules, data) as session:
                session.answer("q(X) :- teaches(X, Y)")
                session.sql_for("q(X) :- teaches(X, Y)")
