"""The unified ExecutionConfig API.

One frozen :class:`repro.exec.ExecutionConfig` carries every execution
knob, and ``config=`` is the only way to pass one: ``spatial_join``,
:class:`SpatialJoin`, ``parallel_spatial_join``, ``execute_plan`` and
the serve config take nothing else.  These tests pin the config's own
contract (defaults, validation messages, round trip) and that a call
written against the removed per-knob parameters fails loudly instead
of binding its values to whatever now sits in that position.
"""

import math

import pytest

from repro.cli import main
from repro.datasets import uniform_rectangles
from repro.exec import (ASSIGNMENT_STRATEGIES, DEFAULT_WORKER_TIMEOUT,
                        EXECUTION_MODES, ON_WORKER_CRASH,
                        PAIR_ENUMERATIONS, ExecutionConfig)
from repro.join import (OVERLAP, SpatialJoin, parallel_spatial_join,
                        spatial_join)
from repro.optimizer import execute_plan
from repro.serve.config import ServeConfig

from .conftest import build_rstar


@pytest.fixture(scope="module")
def trees():
    ds1 = uniform_rectangles(300, 0.5, 2, seed=71)
    ds2 = uniform_rectangles(300, 0.5, 2, seed=72)
    return build_rstar(ds1.items, max_entries=8), \
        build_rstar(ds2.items, max_entries=8)


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.mode == "serial"
        assert config.workers == 1
        assert config.pair_enumeration == "nested-loop"
        assert config.assignment == "greedy"
        assert config.on_worker_crash == "raise"
        assert config.worker_timeout == DEFAULT_WORKER_TIMEOUT
        assert config.traversal == "level-batch"
        assert config.strategy == "sync"
        assert len(config.as_dict()) == 8        # and nothing else

    @pytest.mark.parametrize("kw, message", [
        ({"mode": "fibers"}, "mode must be one of"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"pair_enumeration": "quantum"},
         "pair_enumeration must be one of"),
        ({"assignment": "random"}, "assignment must be one of"),
        ({"on_worker_crash": "retry"},
         "on_worker_crash must be one of"),
        ({"worker_timeout": 0.0},
         "worker_timeout must be positive (or None)"),
        ({"worker_timeout": -3.0},
         "worker_timeout must be positive (or None)"),
    ])
    def test_validation_messages(self, kw, message):
        with pytest.raises(ValueError) as err:
            ExecutionConfig(**kw)
        assert message in str(err.value)

    @pytest.mark.parametrize("kw", [
        # Each used to pass the constructor: 2.5 failed later with a
        # bare TypeError, True ran one worker, nan disabled the
        # watchdog without saying so.
        {"workers": 2.5}, {"workers": True}, {"workers": "2"},
        {"worker_timeout": float("nan")}, {"worker_timeout": math.inf},
        {"worker_timeout": True}, {"worker_timeout": "60"},
    ])
    def test_refuses_what_it_cannot_run(self, kw):
        (field, value), = kw.items()
        with pytest.raises(ValueError, match=f"{field} must be") as err:
            ExecutionConfig(**kw)
        assert repr(value) in str(err.value)
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExecutionConfig.from_dict(kw)
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExecutionConfig().with_options(**kw)

    def test_what_it_can_run_still_passes(self):
        assert ExecutionConfig(workers=3, worker_timeout=1).workers == 3
        assert ExecutionConfig(worker_timeout=None).worker_timeout is None
        assert ExecutionConfig(worker_timeout=0.5).worker_timeout == 0.5

    def test_cli_refuses_a_nan_watchdog(self, capsys):
        # The config is built before any tree file is read.
        code = main(["join", "missing1.json", "missing2.json",
                     "--workers", "2", "--worker-timeout", "nan"])
        assert code == 2
        assert "worker_timeout must be" in capsys.readouterr().err

    def test_constant_tuples(self):
        assert "nested-loop" in PAIR_ENUMERATIONS
        assert "processes" in EXECUTION_MODES
        assert "greedy" in ASSIGNMENT_STRATEGIES
        assert "serial" in ON_WORKER_CRASH

    def test_with_options_and_round_trip(self):
        config = ExecutionConfig(mode="threads", workers=3)
        bumped = config.with_options(workers=5)
        assert bumped.workers == 5 and bumped.mode == "threads"
        assert config.workers == 3               # frozen original
        doc = bumped.as_dict()
        assert ExecutionConfig.from_dict(doc) == bumped
        # from_dict tolerates extra keys being absent
        assert ExecutionConfig.from_dict(
            {"mode": "threads"}).mode == "threads"

    def test_strategy_knob(self):
        assert ExecutionConfig().strategy == "sync"
        assert ExecutionConfig(strategy="pbsm").strategy == "pbsm"
        with pytest.raises(ValueError, match="strategy must be one of"):
            ExecutionConfig(strategy="grid")
        doc = ExecutionConfig(strategy="pbsm").as_dict()
        assert doc["strategy"] == "pbsm"
        assert ExecutionConfig.from_dict(doc).strategy == "pbsm"

    def test_pbsm_refuses_a_worker_pool(self):
        # Every door refuses the combination: the constructor, a copy
        # and a JSON document.
        with pytest.raises(ValueError, match="workers must be 1"):
            ExecutionConfig(strategy="pbsm", workers=2)
        with pytest.raises(ValueError, match="workers must be 1"):
            ExecutionConfig(workers=2).with_options(strategy="pbsm")
        with pytest.raises(ValueError, match="workers must be 1"):
            ExecutionConfig.from_dict({"strategy": "pbsm", "workers": 3})
        assert ExecutionConfig(strategy="pbsm", mode="threads").workers == 1

    def test_from_dict_rejects_unknown_keys(self):
        # A typo used to be silently dropped, running the join with
        # defaults; now it fails loudly in the historical message
        # style.
        with pytest.raises(ValueError) as err:
            ExecutionConfig.from_dict({"stratgy": "pbsm"})
        assert "unknown ExecutionConfig keys ['stratgy']" in \
            str(err.value)
        assert "expected a subset of" in str(err.value)
        with pytest.raises(ValueError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"mode": "serial", "turbo": True})


class TestRemovedPositionals:
    """Everything after ``predicate`` (after ``tree2`` for the parallel
    join) is keyword-only, so a stale positional or a removed keyword is
    a ``TypeError`` — never a string bound to ``retry_policy`` or a
    worker count bound to ``predicate``."""

    def test_spatial_join(self, trees):
        t1, t2 = trees
        with pytest.raises(TypeError, match="positional"):
            spatial_join(t1, t2, None, OVERLAP, True)
        with pytest.raises(TypeError, match="pair_enumeration"):
            spatial_join(t1, t2, pair_enumeration="vectorized")

    def test_spatial_join_class(self, trees):
        t1, t2 = trees
        with pytest.raises(TypeError, match="positional"):
            SpatialJoin(t1, t2, None, OVERLAP, "plane-sweep")
        with pytest.raises(TypeError, match="pair_enumeration"):
            SpatialJoin(t1, t2, pair_enumeration="plane-sweep")

    def test_parallel_spatial_join(self, trees):
        t1, t2 = trees
        with pytest.raises(TypeError, match="positional"):
            parallel_spatial_join(t1, t2, 3)
        for knob in ({"workers": 3}, {"mode": "threads"},
                     {"assignment": "round-robin"},
                     {"worker_timeout": 1.0},
                     {"on_worker_crash": "serial"}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                parallel_spatial_join(t1, t2, **knob)

    def test_execute_plan(self):
        with pytest.raises(TypeError, match="pair_enumeration"):
            execute_plan(None, {}, pair_enumeration="vectorized")
        with pytest.raises(TypeError, match="positional"):
            execute_plan(None, {}, None, "vectorized")


class TestServeConfigExecution:
    def test_default_execution_config(self):
        config = ServeConfig()
        assert config.execution == ExecutionConfig()

    def test_as_dict_embeds_execution_and_round_trips(self):
        config = ServeConfig(execution=ExecutionConfig(
            workers=4, traversal="stack"))
        doc = config.as_dict()
        assert doc["execution"]["workers"] == 4
        assert doc["execution"]["traversal"] == "stack"
        rebuilt = ServeConfig(**doc)
        assert rebuilt == config

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ServeConfig(execution={"mode": "bogus"})

    def test_typoed_execution_key_rejected(self):
        # The serve-request schema path of the strict from_dict: a
        # config document with a misspelled knob must fail loudly, not
        # silently run with defaults.
        with pytest.raises(ValueError, match="unknown ExecutionConfig"):
            ServeConfig(execution={"stratgy": "pbsm"})
