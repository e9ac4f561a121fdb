"""Backend selection and the columnar engine's equivalence contract.

Three layers of assurance, cheapest first:

* unit tests on :mod:`repro.core.backend` resolution semantics
  (including the NumPy-absent degradation, exercised in a subprocess
  whose import machinery hides NumPy);
* property tests on the pruning machinery — the admissibility of
  :func:`~repro.core.columnar.union_cost_lower_bound` against
  brute-force exact costs, and an audit-enabled engine that recomputes
  every skipped bucket on adversarial shapes;
* differential tests — the columnar engine against the dense-matrix
  reference across measures/distances, plus a deliberately broken
  engine proving the harness *detects* divergence rather than
  vacuously passing.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.api import anonymize
from repro.core.backend import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DEFAULT_BACKEND,
    backend_names,
    columnar_available,
    resolve_backend,
)
from repro.core.columnar import _ColumnarEngine, union_cost_lower_bound
from repro.core.distances import distance_names, get_distance
from repro.errors import ReproError
from repro.measures.base import CostModel
from repro.measures.registry import get_measure, measure_names
from repro.tabular.attribute import Attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.table import Schema, Table

from tests.conftest import make_random_table


def _model(table: Table, measure: str = "lm") -> CostModel:
    return CostModel(EncodedTable(table), get_measure(measure))


def _clusters(model, k, distance="d3", modified=False, backend="python"):
    return agglomerative_clustering(
        model, k, get_distance(distance), modified=modified, backend=backend
    ).clusters


# --------------------------------------------------------------------- #
# backend resolution
# --------------------------------------------------------------------- #


class TestResolution:
    def test_default_and_explicit(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == DEFAULT_BACKEND
        assert resolve_backend("python") == "python"
        assert resolve_backend("columnar") == "columnar"
        assert backend_names() == list(BACKENDS)

    def test_env_var_steers_default_but_not_explicit(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "columnar")
        assert resolve_backend(None) == "columnar"
        assert resolve_backend("python") == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend("gpu")

    def test_columnar_degrades_without_numpy(self, monkeypatch):
        import repro.core.backend as mod

        monkeypatch.setattr(mod, "_available", False)
        assert resolve_backend("columnar") == "python"
        assert resolve_backend("python") == "python"

    def test_numpy_absent_subprocess(self):
        """In an interpreter that cannot import NumPy, the probe module
        still imports, reports the backend unavailable, and degrades a
        columnar request to python — no crash.  The probe modules are
        loaded standalone (the package root imports NumPy for the
        algorithms; the *probe* is the part that must stay NumPy-free,
        per the :mod:`repro.core.backend` docstring)."""
        code = textwrap.dedent(
            """
            import importlib.abc, importlib.util, sys, types

            class Block(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ImportError("numpy masked for this test")
                    return None

            sys.meta_path.insert(0, Block())
            assert "numpy" not in sys.modules
            for pkg_name, pkg_path in (
                ("repro", "src/repro"),
                ("repro.core", "src/repro/core"),
            ):
                pkg = types.ModuleType(pkg_name)
                pkg.__path__ = [pkg_path]
                sys.modules[pkg_name] = pkg
            for name, path in (
                ("repro.errors", "src/repro/errors.py"),
                ("repro.core.backend", "src/repro/core/backend.py"),
            ):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
            backend = sys.modules["repro.core.backend"]
            assert backend.columnar_available() is False
            assert backend.resolve_backend("columnar") == "python"
            assert backend.resolve_backend("python") == "python"
            assert "numpy" not in sys.modules
            print("degraded-ok")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        assert "degraded-ok" in proc.stdout

    def test_columnar_available_here(self):
        # The test environment has NumPy; the cached probe must agree.
        assert columnar_available() is True


# --------------------------------------------------------------------- #
# the admissible lower bound
# --------------------------------------------------------------------- #


class TestLowerBound:
    @pytest.mark.parametrize("measure", ["lm", "tree", "mw"])
    def test_admissible_against_brute_force(self, measure):
        """max(c_a, c_b) never exceeds the exact union cost, bitwise,
        for every monotone measure across random closure pairs."""
        table = make_random_table(40, seed=5, domain_sizes=(5, 4, 3))
        model = _model(table, measure)
        assert model.measure.monotone
        enc = model.enc
        rng = np.random.default_rng(0)
        rows = enc.singleton_nodes
        for _ in range(60):
            ia = rng.integers(0, enc.num_records, size=rng.integers(1, 5))
            ib = rng.integers(0, enc.num_records, size=rng.integers(1, 5))
            na = enc.closure_of_records(list(ia))
            nb = enc.closure_of_records(list(ib))
            ca = float(model.record_cost(na))
            cb = float(model.record_cost(nb))
            union = enc.join_rows(na[None, :], nb)
            cu = float(np.asarray(model.record_cost(union))[0])
            lb = float(union_cost_lower_bound(model, ca, cb))
            assert lb <= cu
            assert lb == max(ca, cb)
        assert rows.shape[0] == enc.num_records

    def test_not_claimed_for_entropy(self):
        """Entropy is non-monotone; the engine must not certify pruning
        with it (the bound genuinely fails on real tables)."""
        table = make_random_table(30, seed=2)
        model = _model(table, "entropy")
        engine = _ColumnarEngine(model, get_distance("d3"), 2)
        assert engine.prune_enabled is False

    @pytest.mark.parametrize("distance", distance_names())
    def test_prune_certification_matrix(self, distance):
        """prune_enabled is exactly monotone-measure ∧ monotone-distance."""
        table = make_random_table(12, seed=0)
        for measure in measure_names():
            model = _model(table, measure)
            engine = _ColumnarEngine(model, get_distance(distance), 2)
            expected = bool(
                model.measure.monotone
                and get_distance(distance).monotone_in_union
            )
            assert engine.prune_enabled is expected


# --------------------------------------------------------------------- #
# pruning soundness on adversarial shapes (audited engine)
# --------------------------------------------------------------------- #


def _audited(monkeypatch):
    """Force the pruning machinery on (no size threshold) and audit
    every skip decision against the exact values it avoided."""
    monkeypatch.setattr(_ColumnarEngine, "audit", True)
    monkeypatch.setattr(_ColumnarEngine, "prune_min_buckets", 0)


class TestPruningSoundness:
    @pytest.mark.parametrize("distance", distance_names())
    @pytest.mark.parametrize("measure", ["lm", "tree", "mw"])
    def test_random_tables(self, monkeypatch, measure, distance):
        _audited(monkeypatch)
        for seed in range(3):
            table = make_random_table(24, seed=seed, domain_sizes=(4, 3, 2))
            model = _model(table, measure)
            ref = _clusters(model, 3, distance, backend="python")
            col = _clusters(model, 3, distance, backend="columnar")
            assert col == ref

    def test_duplicate_heavy_table(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", ["x", "y", "z"])
        b = Attribute("b", ["0", "1"])
        schema = Schema([SubsetCollection(att), SubsetCollection(b)])
        rows = [("x", "0")] * 7 + [("y", "1")] * 6 + [("z", "0"), ("x", "1")]
        table = Table(schema, rows)
        model = _model(table, "lm")
        for k in (2, 3, 5):
            assert _clusters(model, k, backend="columnar") == _clusters(
                model, k, backend="python"
            )

    def test_single_column_table(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", [f"v{i}" for i in range(5)])
        table = Table(
            Schema([SubsetCollection(att)]),
            [(f"v{i % 5}",) for i in range(17)],
        )
        model = _model(table, "tree")
        for d in distance_names():
            assert _clusters(model, 4, d, backend="columnar") == _clusters(
                model, 4, d, backend="python"
            )

    def test_all_identical_rows(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", ["x", "y"])
        table = Table(Schema([SubsetCollection(att)]), [("x",)] * 11)
        model = _model(table, "mw")
        assert _clusters(model, 11, backend="columnar") == _clusters(
            model, 11, backend="python"
        )

    def test_k_equals_n(self, monkeypatch):
        _audited(monkeypatch)
        table = make_random_table(15, seed=9)
        model = _model(table, "lm")
        n = model.enc.num_records
        assert _clusters(model, n, modified=True, backend="columnar") == (
            _clusters(model, n, modified=True, backend="python")
        )

    def test_inadmissible_bound_is_caught(self, monkeypatch):
        """The audit hook itself works: a corrupted bound that claims
        too much gets flagged, so the green runs above mean something."""
        _audited(monkeypatch)
        import repro.core.columnar as mod

        monkeypatch.setattr(
            mod,
            "union_cost_lower_bound",
            lambda model, ca, cb: np.maximum(ca, cb) + 1e9,
        )
        table = make_random_table(30, seed=1)
        model = _model(table, "lm")
        with pytest.raises(AssertionError, match="prun"):
            _clusters(model, 3, backend="columnar")


# --------------------------------------------------------------------- #
# differential: columnar vs reference
# --------------------------------------------------------------------- #


class TestBackendDifferential:
    @pytest.mark.parametrize("distance", distance_names())
    def test_distances(self, distance):
        table = make_random_table(35, seed=3, domain_sizes=(4, 3))
        model = _model(table, "entropy")
        for k in (2, 4, 7):
            assert _clusters(model, k, distance, backend="columnar") == (
                _clusters(model, k, distance, backend="python")
            )

    @pytest.mark.parametrize("measure", measure_names())
    def test_measures(self, measure):
        table = make_random_table(28, seed=4)
        model = _model(table, measure)
        for modified in (False, True):
            assert _clusters(
                model, 3, modified=modified, backend="columnar"
            ) == _clusters(model, 3, modified=modified, backend="python")

    def test_end_to_end_results_identical(self):
        table = make_random_table(40, seed=6)
        ref = anonymize(
            table, k=3, notion="k", algorithm="agglomerative",
            backend="python",
        )
        col = anonymize(
            table, k=3, notion="k", algorithm="agglomerative",
            backend="columnar",
        )
        assert np.array_equal(ref.node_matrix, col.node_matrix)
        assert ref.cost == col.cost
        assert list(ref.generalized.labels()) == list(
            col.generalized.labels()
        )

    def test_divergence_is_detected(self, monkeypatch):
        """Corrupt the pruning bound on purpose (audit off): the engine
        skips buckets it must not and the clustering visibly diverges —
        so the green differential runs above cannot be passing
        vacuously, and the admissibility of the *real* bound is what
        keeps them green."""
        import repro.core.columnar as mod

        monkeypatch.setattr(_ColumnarEngine, "prune_min_buckets", 0)
        table = make_random_table(30, seed=8)
        model = _model(table, "lm")
        ref = _clusters(model, 3, backend="python")
        assert _clusters(model, 3, backend="columnar") == ref

        monkeypatch.setattr(
            mod,
            "union_cost_lower_bound",
            lambda model, ca, cb: np.maximum(ca, cb) + 0.5,
        )
        assert _clusters(model, 3, backend="columnar") != ref
