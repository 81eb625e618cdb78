import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import mflab
from mflab import analysis, cli, effective, exact, reservoir
from mflab.config import KINDS, load_config, parse_config
from mflab.errors import (ConfigError, MFLabError, ResourceLimitError,
                          ValidationError)
from mflab.model import SiteModel, coherent_ket
from mflab.operators import DensityMatrix, Operator, pauli
from mflab.reservoir import MomentRun, factorization_error, limit_atoms
import oracles


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# the two-site flip interaction of the bundled cluster_pair
PAIR_FLIP = "[[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]"
PAIR_INTERACTION = f"    interaction: {PAIR_FLIP}\n"

SMALL_CONVERGENCE = """
kind: convergence
model:
  system: {hamiltonian: pauli_z, coupling: pauli_x}
  site: {hamiltonian: pauli_z, interaction: pauli_x}
reservoir: {kind: product, site_state: plus}
initial_state: zero
run: {m_list: [1, 2], t_max: 1.0, n_times: 21}
outputs: {table: gap.csv}
"""


# a series_ratio check placed first in a moments config's check list
SERIES_CHECK = ("checks:\n"
                "  - {check: series_ratio, order: 2, t: 0.4, m_count: 2}\n")


class TestConfigParsing:
    def test_m_list_must_increase(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace("[1, 2]", "[3, 2]")
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace("initial_state: zero",
                                        "initial_state: zero\nbogus: 1")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_config(tmp_path, bad))

    def test_nested_unknown_key_rejected(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace(
            "run: {m_list: [1, 2], t_max: 1.0, n_times: 21}",
            "run: {m_list: [1, 2], t_max: 1.0, n_times: 21, extra: 2}")
        with pytest.raises(ConfigError, match="extra"):
            load_config(write_config(tmp_path, bad))

    def test_tolerances_must_be_positive(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace(
            "n_times: 21", "n_times: 21, step_target: -1.0e-7")
        with pytest.raises(ConfigError, match="positive"):
            load_config(write_config(tmp_path, bad))

    def test_matrix_pairs_literal(self):
        doc = {
            "kind": "convergence",
            "model": {
                "system": {"hamiltonian": "pauli_z",
                           "coupling": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]},
                "site": {"hamiltonian": "pauli_z", "interaction": "pauli_x"},
            },
            "reservoir": {"kind": "product", "site_state": "plus"},
            "initial_state": "zero",
            "run": {"m_list": [1], "t_max": 1.0, "n_times": 5},
            "outputs": {"table": "t.csv"},
        }
        cfg = parse_config(doc)
        assert np.allclose(cfg.system.couplings[0].g.data, pauli("y").data)

    def test_ket_literal_is_normalized(self):
        doc = {
            "kind": "convergence",
            "model": {
                "system": {"hamiltonian": "pauli_z", "coupling": "pauli_x"},
                "site": {"hamiltonian": "pauli_z", "interaction": "pauli_x"},
            },
            "reservoir": {"kind": "product", "site_state": {"ket": [1, 1]}},
            "initial_state": "zero",
            "run": {"m_list": [1], "t_max": 1.0, "n_times": 5},
            "outputs": {"table": "t.csv"},
        }
        cfg = parse_config(doc)
        assert np.allclose(cfg.reservoir.site_state.data,
                           0.5 * np.ones((2, 2)))
        # DensityMatrix.pure alone normalizes: a tiny nonzero ket is a state
        doc["reservoir"]["site_state"]["ket"] = [1e-13, 1e-13]
        assert np.allclose(parse_config(doc).reservoir.site_state.data,
                           0.5 * np.ones((2, 2)))

    def test_build_reports_any_errors_arg_under_its_key(self):
        from mflab import config

        def make(kind):
            raise kind("refused", arg="n")
        for kind, want in ((ResourceLimitError, ResourceLimitError),
                           (ValidationError, ConfigError)):
            with pytest.raises(MFLabError) as info:
                config._build("where", make, kind, keys={"n": "k"})
            assert type(info.value) is want
            assert str(info.value) == "where.k: refused"

    def test_non_hermitian_hamiltonian_rejected(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace(
            "system: {hamiltonian: pauli_z, coupling: pauli_x}",
            "system: {hamiltonian: [[0, 1], [0, 0]], coupling: pauli_x}")
        with pytest.raises(ConfigError, match="ermitian"):
            load_config(write_config(tmp_path, bad))

    def test_bell_needs_two_factors(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace("initial_state: zero",
                                        "initial_state: bell")
        with pytest.raises(ConfigError, match="two qubit factors"):
            load_config(write_config(tmp_path, bad))

    def test_coherent_ket_fills_a_qubit_site(self, tmp_path):
        # a coherent ket is truncated to the dimension of the state it fills
        text = SMALL_CONVERGENCE.replace("site_state: plus",
                                         "site_state: {coherent: 0.5}")
        cfg = load_config(write_config(tmp_path, text))
        assert np.array_equal(cfg.reservoir.site_state.data, DensityMatrix.pure(
            coherent_ket(0.5, 2), (2,)).data)

    def test_fock_index_bounds(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace("site_state: plus",
                                        "site_state: {fock: 7}")
        with pytest.raises(ConfigError, match="outside"):
            load_config(write_config(tmp_path, bad))

    def test_table_must_be_plain_csv(self, tmp_path):
        for name in ("gap.txt", "../gap.csv", ".csv"):
            bad = SMALL_CONVERGENCE.replace("table: gap.csv", f"table: {name}")
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, bad))

    def test_definetti_kind_needs_mixture(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace("kind: convergence", "kind: definetti")
        with pytest.raises(ConfigError, match="definetti"):
            load_config(write_config(tmp_path, bad))

    def test_channel_m_list_below_correlation_length_rejected(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace(
            "{kind: product, site_state: plus}",
            "{kind: channel, site_state: zero}")
        with pytest.raises(ConfigError,
                           match=r"run\.m_list: need at least 2 sites"):
            load_config(write_config(tmp_path, bad))
        ok = bad.replace("[1, 2]", "[2, 3]")
        runs = load_config(write_config(tmp_path, ok)).runs
        assert [r.m_count for r in runs] == [2, 3]

    def test_series_ratio_needs_initial_state(self):
        doc = {
            "kind": "moments",
            "model": {
                "system": {"hamiltonian": "pauli_z", "coupling": "pauli_x"},
                "site": {"hamiltonian": "pauli_z", "interaction": "pauli_x"},
            },
            "reservoir": {"kind": "product", "site_state": "plus"},
            "checks": [{"check": "series_ratio", "order": 2, "t": 0.4,
                        "m_count": 1}],
            "outputs": {"table": "t.csv"},
        }
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(doc)

    def test_bump_support_validated(self):
        doc = {
            "kind": "decay",
            "overlap": {"profile": "bump", "center": 3.0, "halfwidth": 4.0,
                        "r_max": 6.0, "times": [0.0, 1.0]},
            "outputs": {"table": "t.csv"},
        }
        with pytest.raises(ConfigError, match="r = 0"):
            parse_config(doc)

    def test_not_yaml_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write_config(tmp_path, "- just\n- a list\n"))

    @pytest.mark.parametrize("base,old,new,message", [
        ("oscillator_coherent", "frequency: 1.0", "frequency: fast",
         "exp.yaml.model.site.oscillator.frequency: expected a number"),
        (None, "t_max: 1.0", "t_max: 0",
         "exp.yaml.run.t_max: must be positive, got 0.0"),
        (None, "n_times: 21", "n_times: 1",
         "exp.yaml.run.n_times: must be >= 2, got 1"),
        (None, "{kind: product", "{kind: thermal",
         "exp.yaml.reservoir.kind: expected one of product, channel, "
         "definetti, macroscopic, got 'thermal'"),
        ("well_localization", "half_line: true", "half_line: 1",
         "exp.yaml.problem.half_line: expected true or false"),
        ("well_localization", "depths: [1.5, 5.0, 30.0]",
         "depths: [1.5, deep]", "exp.yaml.problem.depths: expected a number"),
        (None, "[1, 2]", "[1, 0]", "exp.yaml.run.m_list: must be >= 1, got 0"),
        (None, "interaction: pauli_x}", "interaction: [[0, 1], [0, 0]]}",
         "exp.yaml.model.site.interaction: matrix flagged Hermitian has "
         "defect 1.00e+00"),
        (None, "initial_state: zero", "initial_state: {fock: 2}",
         "exp.yaml.initial_state.fock: level 2 outside 0..1"),
        (None, "site_state: plus", "site_state: {matrix: [[1, 0], [0, 1]]}",
         "exp.yaml.reservoir.site_state.matrix: density matrix trace 2+0j "
         "!= 1"),
        (None, "coupling: pauli_x}", "coupling: pauli_x, interaction_index: -1}",
         "exp.yaml.model.system.interaction_index: must be >= 0, got -1"),
        (None, "system: {hamiltonian: pauli_z, coupling: pauli_x}",
         "system: {subsystems: [{hamiltonian: pauli_z}, "
         "{hamiltonian: pauli_z, coupling: pauli_w}]}",
         "exp.yaml.model.system.subsystems[1].coupling: unknown matrix name "
         "'pauli_w' (known: identity2, pauli_x, pauli_y, pauli_z)"),
        (None, "site: {hamiltonian: pauli_z, interaction: pauli_x}",
         "site: {hamiltonian: pauli_z, interactions: "
         "[pauli_x, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}",
         "exp.yaml.model.site: interaction 1 has dims (3,), site has dim 2"),
        (None, "coupling: pauli_x}",
         "coupling: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}",
         "exp.yaml.model.system: coupling 0 operator dim 3 does not match "
         "subsystem dim 2; couplings must be local"),
        ("definetti_two_atom", "{weight: 0.5, site_state: minus}",
         "{weight: 0.7, site_state: minus}",
         "exp.yaml.reservoir: mixture weights: weights sum to "
         "1.200000000000000, not 1"),
        ("cluster_pair", "- [0, 0, 0, 1]", "- [0, 0, 0, 2]",
         "exp.yaml.model.site.interaction: matrix flagged Hermitian has "
         "defect "
         "5.00e-01"),
        (None, "initial_state: zero", "initial_state: {ket: [0, 0]}",
         "exp.yaml.initial_state.ket: cannot normalize the zero vector"),
        ("dyson_ratio", "order: 4", "order: 5",
         "exp.yaml.checks[0].order: series order must be between 0 and 4"),
        ("moments_product_qubit", "checks:\n", SERIES_CHECK,
         "exp.yaml.checks[0]: series_ratio checks need a model.system "
         "block"),
        ("oscillator_coherent", "site_state:\n    coherent: 0.5",
         "site_state: {fock: 1}",
         "exp.yaml.checks[0]: coherent moment bounds need a coherent "
         "reservoir site state")],
        ids=["number", "positive", "integer", "string", "flag", "numbers",
             "sizes", "operator", "state", "state-matrix-guard",
             "system-inline", "system-subsystems", "site-guard",
             "system-guard", "reservoir-guard", "cluster-guard",
             "zero-ket", "series-order", "series-without-system",
             "moment-bound-without-coherent-state"])
    def test_error_messages_are_pinned(self, tmp_path, base, old, new,
                                       message):
        text = (SMALL_CONVERGENCE if base is None
                else cli.resolve_config(base).read_text())
        assert old in text
        path = write_config(tmp_path, text.replace(old, new, 1))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("base,old,new,key", [
        (None, "t_max: 1.0", "t_max: .inf", "exp.yaml.run.t_max"),
        (None, "t_max: 1.0", "t_max: 1" + "0" * 400, "exp.yaml.run.t_max"),
        (None, "system: {hamiltonian: pauli_z,",
         "system: {hamiltonian: [[.nan, 0], [0, 1]],",
         "exp.yaml.model.system.hamiltonian"),
        (None, "site_state: plus", "site_state: {ket: [1, [0, -.inf]]}",
         "exp.yaml.reservoir.site_state.ket"),
        ("well_localization", "depths: [1.5, 5.0, 30.0]",
         "depths: [1.5, .nan, 30.0]", "exp.yaml.problem.depths")],
        ids=["t_max", "t_max-past-float", "matrix-entry", "ket-entry",
             "depths-entry"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, base, old,
                                         new, key):
        text = (SMALL_CONVERGENCE if base is None
                else cli.resolve_config(base).read_text())
        assert old in text
        path = write_config(tmp_path, text.replace(old, new, 1))
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{key}: " in err and "finite" in err

    def test_repeated_key_rejected(self, tmp_path):
        bad = SMALL_CONVERGENCE.replace(
            "run: {m_list: [1, 2], t_max: 1.0, n_times: 21}",
            "run:\n  m_list: [1, 2]\n  t_max: 2.0\n  n_times: 21\n"
            "  t_max: 0.5")
        with pytest.raises(ConfigError,
                           match="repeated key 't_max' at line 12"):
            load_config(write_config(tmp_path, bad))

    def test_merged_keys_may_be_overridden(self):
        import yaml
        from mflab import config
        text = "base: &b {a: 1, b: 2}\nuse: {<<: *b, a: 3}\n"
        assert yaml.load(text, Loader=config._StrictLoader) == {
            "base": {"a": 1, "b": 2}, "use": {"a": 3, "b": 2}}


class TestCatalog:
    def test_at_least_eleven_bundled(self):
        assert len(cli.bundled_names()) >= 11

    def test_every_bundled_config_parses(self):
        for name in cli.bundled_names():
            cfg = load_config(cli.resolve_config(name))
            assert cfg.kind in KINDS
            assert cfg.description

    def test_expected_case_coverage(self):
        names = set(cli.bundled_names())
        required = {
            "qubit_convergence", "bell_pair_protection", "oscillator_coherent",
            "oscillator_scattering", "field_coherent",
            "field_scattering_decay", "well_localization", "stark_halfline",
            "bell_channel_moments", "definetti_two_atom", "cluster_pair",
            "macroscopic_two_part",
        }
        assert required <= names

    def test_list_verb_prints_catalog(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in cli.bundled_names():
            assert name in out

    def test_readme_table_matches_the_list_verb(self, capsys):
        # README's "Bundled experiments" table rows, name | kind | what it
        # measures, are exactly what `mflab list` prints
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Bundled experiments\n", 1)[1]
        rows = section.strip().split("\n\n", 1)[0].splitlines()[2:]
        table = sorted(tuple(cell.strip() for cell in row.strip("|").split("|"))
                       for row in rows)
        assert cli.main(["list"]) == 0
        listed = sorted(tuple(line.split(None, 2))
                        for line in capsys.readouterr().out.splitlines())
        assert table == listed and len(listed) == len(cli.bundled_names())

    def test_validate_verb_accepts_all_bundled(self, capsys):
        assert cli.main(["validate"] + cli.bundled_names()) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == len(cli.bundled_names())


class TestRunVerb:
    def test_convergence_run_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        table = tmp_path / "out" / "exp" / "gap.csv"
        lines = table.read_text().splitlines()
        assert lines[0] == "m_count,max_gap,ratio_to_previous"
        gaps = [float(row.split(",")[1]) for row in lines[1:]]
        assert gaps[0] > gaps[1] > 0
        summary = json.loads(
            (tmp_path / "out" / "exp" / "summary.json").read_text())
        assert summary["kind"] == "convergence"
        assert summary["rows"] == 2
        assert summary["notes"]["gaps_strictly_decreasing"] is True
        finite = summary["notes"]["finite_m"]
        assert len(finite) == 2
        for diag in finite.values():
            assert diag["path"] == "symmetric-sector"
            assert diag["branches"] == 1
            assert diag["sectors"] >= 1 and diag["max_sector_dim"] >= 1
            assert diag["branch_mass_defect"] < 1e-12
            assert diag["max_norm_drift"] < 1e-10

    def test_finite_m_notes_count_eigenbasis_sectors(self, tmp_path):
        # one-column sectors keep the amplitudes; the spin blocks of a
        # rank-2 site state are contracted in their eigenbasis
        assert cli.main(["run", "qubit_convergence", "--out",
                         str(tmp_path)]) == 0
        summary = json.loads(
            (tmp_path / "qubit_convergence" / "summary.json").read_text())
        finite = summary["notes"]["finite_m"]
        assert finite and all(diag["eigenbasis_sectors"] == 0
                              for diag in finite.values())
        rank2 = SMALL_CONVERGENCE.replace(
            "site_state: plus", "site_state: {matrix: [[0.8, 0], [0, 0.2]]}")
        rank2 = rank2.replace("m_list: [1, 2]", "m_list: [4, 8]")
        cfg = write_config(tmp_path, rank2)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(
            (tmp_path / "out" / "exp" / "summary.json").read_text())
        # spin blocks j = 2 at M = 4 and j = 4, 3, 2 at M = 8, of the 3 and
        # 5 sectors
        finite = summary["notes"]["finite_m"]
        assert {m: (diag["eigenbasis_sectors"], diag["sectors"])
                for m, diag in finite.items()} == {"4": (1, 3), "8": (3, 5)}

    def test_cluster_run_reports_finite_m_notes(self, tmp_path):
        code = cli.main(["run", "cluster_pair", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(
            (tmp_path / "cluster_pair" / "summary.json").read_text())
        finite = summary["notes"]["finite_m"]
        assert sorted(finite, key=int) == ["2", "3", "4", "6"]
        for m, diag in finite.items():
            assert diag["path"] == "symmetric-sector"
            assert diag["sectors"] == 1
            assert diag["max_sector_dim"] == int(m) + 1
            assert diag["max_norm_drift"] < 1e-10

    def test_cluster_run_honours_threads(self, tmp_path, monkeypatch):
        seen = []
        produce = analysis.sweep

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return produce(*args, **kwargs)

        monkeypatch.setattr(analysis, "sweep", spy)
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert cli.main(["run", "cluster_pair", "--out", str(out),
                             "--threads", str(threads)]) == 0
        assert seen == [1, 2]
        a = (tmp_path / "t1" / "cluster_pair" / "cluster_gap.csv").read_bytes()
        b = (tmp_path / "t2" / "cluster_pair" / "cluster_gap.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("name,atoms", [
        ("qubit_convergence", 0), ("cluster_pair", 0),
        ("macroscopic_two_part", 0), ("oscillator_scattering", 0),
        ("bell_pair_protection", 0), ("definetti_two_atom", 2)])
    def test_propagation_kinds_propagate_each_size_once(
            self, tmp_path, monkeypatch, name, atoms):
        # every binding of the propagators is counted, so a second
        # implementation anywhere shows up as extra calls; the limit steps
        # each atom of a mixture once, a single atom (atoms 0) once. Each M
        # takes one trace distance to the limit, the sweep's, which a de
        # Finetti run's mixture gap reads, plus one to each atom's orbit.
        # The runs config builds to check them are the runs propagated, so
        # each M's FiniteMRun is built once over the whole command
        runs = load_config(cli.resolve_config(name)).runs
        calls = {"propagate_exact": 0, "effective_trajectory": 0,
                 "propagate_effective": 0, "trace_distance": 0,
                 "FiniteMRun": 0}

        def count(module, fname, key=None):
            real = getattr(module, fname)

            def counting(*args, **kwargs):
                calls[key or fname] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, fname, counting)

        for module in (analysis, exact):
            count(module, "propagate_exact")
        for module in (analysis, effective, exact):
            count(module, "effective_trajectory")
        for module in (cli, effective):
            count(module, "propagate_effective")
        count(analysis, "trace_distance")
        count(exact.FiniteMRun, "__post_init__", "FiniteMRun")
        assert cli.main(["run", name, "--out", str(tmp_path)]) == 0
        assert calls == {"propagate_exact": len(runs),
                         "effective_trajectory": 1,
                         "propagate_effective": max(atoms, 1),
                         "trace_distance": len(runs) * (1 + atoms),
                         "FiniteMRun": len(runs)}

    @pytest.mark.parametrize("name", [
        name for name in cli.bundled_names() if yaml.safe_load(
            cli.resolve_config(name).read_text())["kind"] == "moments"])
    def test_moment_checks_build_each_run_once(self, tmp_path, monkeypatch,
                                               name):
        # the config builds one MomentRun per (check, M) on the check's full
        # times, and the run reads those very objects: every order of a
        # moment bound from one run, and nothing built again
        doc = yaml.safe_load(cli.resolve_config(name).read_text())
        want = sum(len(check.get("m_list", ())) for check in doc["checks"])
        built, read, loaded = [], [], []
        load, post_init = cli.load_config, reservoir.MomentRun.__post_init__

        def counting_load(path):
            loaded.append(load(path))
            return loaded[-1]

        def counting_post_init(run):
            built.append(run)
            post_init(run)

        def reading(fname):
            real = getattr(cli, fname)

            def spy(run, *args):
                read.append(run)
                return real(run, *args)
            monkeypatch.setattr(cli, fname, spy)

        monkeypatch.setattr(cli, "load_config", counting_load)
        monkeypatch.setattr(reservoir.MomentRun, "__post_init__",
                            counting_post_init)
        reading("multitime_moment")
        reading("factorization_error")
        assert cli.main(["run", name, "--out", str(tmp_path)]) == 0
        (cfg,) = loaded
        runs = [run for check in cfg.checks for run in check.get("runs", ())]
        assert len(built) == len(runs) == want
        assert {id(run) for run in built} == {id(run) for run in runs}
        assert {id(run) for run in read} == {id(run) for run in runs}

    @pytest.mark.parametrize("name", [
        "bell_pair_protection", "definetti_two_atom", "qubit_convergence",
        "cluster_pair", "macroscopic_two_part", "oscillator_scattering"])
    def test_finite_m_runs_honour_threads(self, tmp_path, monkeypatch, name):
        # every trajectory kind maps its M list over the same worker pool;
        # one parsed config serves a serial and a threaded run, as a caller
        # that runs it many times does: the runs it holds are the runs
        # propagated, each pass to the same bytes
        pools, propagated, real = [], [], analysis.propagate_exact

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        def spy(run):
            propagated.append(id(run))
            return real(run)

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(analysis, "propagate_exact", spy)
        cfg = load_config(cli.resolve_config(name))
        tables = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            cli.run_experiment(cfg, out, name, threads=threads)
            tables.append((out / cfg.table).read_bytes())
        assert pools == [2]
        assert tables[0] == tables[1]
        assert sorted(propagated) == sorted(2 * [id(r) for r in cfg.runs])

    def test_cluster_run_on_a_definetti_reservoir(self, tmp_path):
        text = """
kind: convergence
model:
  system: {hamiltonian: pauli_z, coupling: pauli_x}
  site:
    hamiltonian: pauli_z
    interaction: [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
reservoir:
  kind: definetti
  atoms:
    - {weight: 0.5, site_state: plus}
    - {weight: 0.5, site_state: zero}
initial_state: zero
run: {m_list: [4, 8, 16], t_max: 2.0, n_times: 41}
outputs: {table: gap.csv}
"""
        cfg = write_config(tmp_path, text)
        summary = cli.run_experiment(load_config(cfg), tmp_path / "o", "exp")
        assert summary["rows"] == 3
        assert summary["notes"]["gaps_strictly_decreasing"] is True
        assert summary["notes"]["final_gap"] < 0.02

    @pytest.mark.parametrize("name", ["bell_pair_protection",
                                      "definetti_two_atom"])
    def test_cluster_runs_in_every_trajectory_kind(self, tmp_path, name):
        # the pair interaction takes the one-site one's place; both of the
        # entanglement run's subsystems couple to it
        text = cli.resolve_config(name).read_text()
        assert text.count("    interaction: pauli_x\n") == 1
        cfg = load_config(write_config(
            tmp_path, text.replace("    interaction: pauli_x\n",
                                   PAIR_INTERACTION)))
        assert [v.dims for v in cfg.site.interactions] == [(2, 2)]
        summary = cli.run_experiment(cfg, tmp_path / "o", name)
        assert summary["rows"] > 0
        gaps = [summary["notes"]["max_gap_by_m"][str(r.m_count)]
                for r in cfg.runs]
        assert all(b < 0.6 * a for a, b in zip(gaps, gaps[1:]))

    def test_csv_cells_roundtrip_full_precision(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "exp" / "gap.csv").read_text().splitlines()
        # %.17g preserves doubles exactly, so re-parsing must be lossless
        parsed = float(lines[1].split(",")[1])
        assert f"%.17g" % parsed == lines[1].split(",")[1]

    def test_determinism_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "exp" / "gap.csv").read_bytes()
        b = (tmp_path / "b" / "exp" / "gap.csv").read_bytes()
        assert a == b

    def test_seed_never_changes_physics(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        cli.main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
        cli.main(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "exp" / "gap.csv").read_bytes()
        b = (tmp_path / "b" / "exp" / "gap.csv").read_bytes()
        assert a == b

    def test_seed_drives_audit_fixtures(self, tmp_path):
        text = """
kind: convergence
stepper_audit: {count: 2, t_max: 1.0, substeps: 32, seed: 7}
outputs: {table: audit.csv}
"""
        cfg = write_config(tmp_path, text)
        cli.main(["run", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", str(cfg), "--out", str(tmp_path / "b")])
        cli.main(["run", str(cfg), "--out", str(tmp_path / "c"), "--seed", "9"])
        a = (tmp_path / "a" / "exp" / "audit.csv").read_bytes()
        b = (tmp_path / "b" / "exp" / "audit.csv").read_bytes()
        c = (tmp_path / "c" / "exp" / "audit.csv").read_bytes()
        assert a == b
        assert a != c

    def test_audit_refuses_a_vanished_step_error(self, tmp_path, capsys):
        # at t_max far below the step size the finer endpoint error is 0
        # (1e-12) or rounding (about 1e-23 at 1e-7): no order can be read
        # from it
        text = cli.resolve_config("propagator_quality").read_text()
        for t_max in ("1.0e-12", "1.0e-7"):
            cfg = write_config(tmp_path, text.replace(
                "t_max: 1.5", f"t_max: {t_max}").replace("count: 20",
                                                          "count: 2"))
            out = tmp_path / "o"
            assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "draw 0: step-halving error e2 = " in err
            assert "below the rounding floor 32 x 48 substeps x eps" in err
            assert not out.exists()

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "exp" / "gap.csv").is_file()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "exp" / "gap.csv").is_file()
        assert not (tmp_path / "envout").exists()

    def test_validation_exit_code_names_invariant(self, tmp_path, capsys):
        bad = SMALL_CONVERGENCE.replace("[1, 2]", "[3, 2]")
        cfg = write_config(tmp_path, bad)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "m_list" in err and "strictly increasing" in err

    @pytest.mark.parametrize("flag,value,experiment", [
        ("--threads", "-3", "well_localization"),
        ("--threads", "0", "moments_product_qubit"),
        ("--seed", "-1", "propagator_quality"),
        ("--seed", "-5", "well_localization")])
    def test_bad_run_arguments_exit_2(self, tmp_path, capsys, flag, value,
                                      experiment):
        code = cli.main(["run", experiment, "--out", str(tmp_path), flag,
                         value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert flag[2:] in err and value in err
        assert not (tmp_path / experiment).exists()

    def test_tolerance_exit_code_names_operation(self, tmp_path, capsys):
        text = """
kind: spectrum
problem: {type: stark, slope: 1.0, levels: 3, n_grid: 64, rel_tol: 1.0e-14}
outputs: {table: s.csv}
"""
        cfg = write_config(tmp_path, text)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "analysis.stark_halfline_spectrum" in err

    def test_stalled_limit_step_names_the_propagator(self, tmp_path, capsys,
                                                     recwarn):
        # the substep count the bound asks for is refused before any step
        text = SMALL_CONVERGENCE.replace(
            "run: {m_list: [1, 2], t_max: 1.0, n_times: 21}",
            "run: {m_list: [1], t_max: 0.5, n_times: 2, "
            "step_target: 1.0e-300}")
        cfg = write_config(tmp_path, text)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("error: effective.propagate_effective: midpoint "
                              "step error bound needs ")
        assert err.endswith(" substeps per interval to meet target 1.0e-300, "
                            "past the cap of 65536\n")
        assert len(recwarn) == 0

    def test_overflowing_limit_generator_fails_at_once(self, tmp_path,
                                                       capsys, recwarn):
        text = cli.resolve_config("qubit_convergence").read_text().replace(
            "coupling: pauli_x", "coupling: [[0, 1.0e+300], [1.0e+300, 0]]")
        cfg = write_config(tmp_path, text)
        assert cli.main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err == ("error: effective.propagate_effective: midpoint step "
                       "error bound is inf; the limit generator overflows\n")
        assert len(recwarn) == 0

    def test_resource_exit_code_names_operation(self, tmp_path, capsys):
        cases = [
            # rank-2 qubit sites take spin blocks of dimension up to M + 1:
            # at M = 511 they each fit, but together need more than one
            # sector's dense work at the cutoff
            ("{hamiltonian: pauli_z, interaction: pauli_x}",
             "[[0.8, 0], [0, 0.2]]", 511, "part sizes (511,) with shift 0"),
            # a qutrit's rank-2 state stays on compositions: the even split
            # of 20 sites has dimension 66^2, times 2 > 4096
            ("{oscillator: {levels: 3}}",
             "[[0.7, 0, 0], [0, 0.3, 0], [0, 0, 0]]", 20,
             "part sizes (10, 10) with shift 0")]
        for site, state, m, words in cases:
            text = f"""
kind: convergence
model:
  system: {{hamiltonian: pauli_z, coupling: pauli_x}}
  site: {site}
reservoir: {{kind: product, site_state: {{matrix: {state}}}}}
initial_state: zero
run: {{m_list: [{m}], t_max: 1.0, n_times: 5}}
outputs: {{table: g.csv}}
"""
            cfg = write_config(tmp_path, text)
            code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 4
            # the run's constructor refuses it while the config is read
            assert err.count("\n") == 1 and err.startswith(
                "error: config.parse_config: exp.yaml.run.m_list: ")
            assert words in err

    def test_unknown_reference_exits_2(self, capsys):
        code = cli.main(["run", "no_such_experiment"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no_such_experiment" in err

    def test_spectrum_table_matches_library(self, tmp_path):
        text = """
kind: spectrum
problem: {type: stark, slope: 1.0, levels: 3, n_grid: 1600}
outputs: {table: s.csv}
"""
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "exp" / "s.csv").read_text().splitlines()
        direct = analysis.stark_halfline_spectrum(1.0, 3, n_grid=1600)
        for row, ref in zip(lines[1:], direct):
            assert float(row.split(",")[1]) == pytest.approx(ref, abs=0)

    def test_decay_static_value(self, tmp_path):
        text = """
kind: decay
overlap:
  profile: gaussian
  r_max: 40.0
  times: [0.0, 1.0]
  tol: 1.0e-7
outputs: {table: d.csv}
"""
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "exp" / "d.csv").read_text().splitlines()
        static = float(lines[1].split(",")[1])
        assert static == pytest.approx((math.sqrt(2 * math.pi) / 16) ** 2,
                                       rel=1e-9)

    def test_moments_run_reports_within(self, tmp_path):
        text = """
kind: moments
model:
  site: {hamiltonian: pauli_z, interaction: pauli_x}
reservoir: {kind: product, site_state: plus}
checks:
  - {check: factorization, m_list: [2, 100], times: [0.3, 0.9]}
  - {check: supermultiplicative, max_order: 4}
outputs: {table: m.csv}
"""
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(
            (tmp_path / "o" / "exp" / "summary.json").read_text())
        assert summary["notes"]["all_within"] is True
        lines = (tmp_path / "o" / "exp" / "m.csv").read_text().splitlines()
        assert all(row.rsplit(",", 1)[1] == "1" for row in lines[1:])


@pytest.mark.parametrize("name", ["bell_pair_protection",
                                  "definetti_two_atom"])
def test_limit_diagnostics_in_summary(tmp_path, name):
    cfg = load_config(cli.resolve_config(name))
    summary = cli.run_experiment(cfg, tmp_path, name)
    limit = summary["notes"]["limit"]
    assert limit["step_error"] <= cfg.step_target
    assert limit["n_substeps"] >= 1
    assert limit["factors"] == cfg.system.n_subsystems
    # one stepper per distinct factor: the bell pair's two equal qubits are
    # stepped once, as SU(2) pairs
    assert limit["steppers"] == ["cayley-klein"]
    assert limit["max_trace_drift"] < 1e-12
    # one pass per atom of its one distinct factor: the atom's substep
    # count x intervals, summed over the atoms
    intervals = len(cfg.grid) - 1
    atoms = limit_atoms(cfg.reservoir)
    assert limit["atoms"] == len(atoms)
    counts = [effective.propagate_effective(
        cfg.system, effective.effective_potential(s, cfg.site), cfg.grid,
        cfg.step_target).n_substeps for _, s in atoms]
    assert limit["n_substeps"] == max(counts)
    assert isinstance(limit["steps_computed"], int)
    assert limit["steps_computed"] == sum(counts) * intervals
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["notes"]["limit"] == limit


@pytest.mark.parametrize("name", ["qubit_convergence", "cluster_pair",
                                  "macroscopic_two_part",
                                  "oscillator_scattering",
                                  "bell_pair_protection",
                                  "definetti_two_atom"])
def test_trajectory_kinds_write_common_notes(tmp_path, monkeypatch, name):
    # every trajectory kind reports the limit run's diagnostics, each finite
    # run's by M, and each M's largest trace distance to the limit
    seen = {}

    def capture(fname):
        real = getattr(analysis, fname)

        def capturing(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.setdefault(fname, []).append(out)
            return out
        monkeypatch.setattr(analysis, fname, capturing)

    capture("effective_trajectory")
    capture("propagate_exact")
    assert cli.main(["run", name, "--out", str(tmp_path)]) == 0
    notes = json.loads(
        (tmp_path / name / "summary.json").read_text())["notes"]
    (limit,) = seen["effective_trajectory"]
    finite = seen["propagate_exact"]
    m_list = [r.m_count for r in load_config(cli.resolve_config(name)).runs]
    # the limit result's diagnostics are those effective._limit_result
    # assembles, the finite runs' those propagate_exact reports
    assert notes["limit"] == json.loads(json.dumps(limit.diagnostics))
    assert sorted(notes["finite_m"], key=int) == [str(m) for m in m_list]
    assert sorted(notes["max_gap_by_m"], key=int) == [str(m) for m in m_list]
    for m, run in zip(m_list, finite):
        assert notes["finite_m"][str(m)] == json.loads(
            json.dumps(run.diagnostics))
        gap = max(analysis.trace_distance(a, b)
                  for a, b in zip(run.states, limit.states))
        assert notes["max_gap_by_m"][str(m)] == pytest.approx(gap, rel=1e-12,
                                                              abs=1e-15)


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_perfbench("gate")


def test_traced_names_resolve():
    # the benchmark's span tracer looks these up by name; a rename or a
    # deletion would otherwise break only traced benchmark runs
    for layer, names in _load_perfbench("tracing").TRACED.items():
        module = importlib.import_module(f"mflab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mflab.{layer}.{name}"


_WORKLOADS = [w["name"] for w in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)["workloads"]]


@pytest.mark.parametrize("name", _WORKLOADS)
def test_benchmark_workloads_pass_their_gate(tmp_path, monkeypatch, name):
    # each benchmark workload calls mflab's public functions with fixed
    # signatures; one pass and its probes, checked by the benchmark's own
    # gate, so that a change the benchmark cannot run fails here first
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    gate = importlib.import_module("gate")
    workload = workloads.make(name, 7, str(tmp_path))
    for op in workload.ops(0) + getattr(workload, "probes", list)():
        findings = gate.Findings()
        op.check(op.run(), findings)
        assert not findings, (op.name, findings.messages())


def test_bundled_runs_never_assemble_the_full_space(tmp_path, monkeypatch):
    # the finite-M engine and the series oracle work on symmetric sectors,
    # the moments on the ensemble decomposition; the d^M joint Hamiltonian
    # and reservoir state are test-side references only
    def refuse(*args, **kwargs):
        raise AssertionError("full-space object assembled")

    for module in [m for n, m in sys.modules.items()
                   if n == "mflab" or n.startswith("mflab.")] + [oracles]:
        for name in ("assemble_total", "assemble_cluster_interaction",
                     "materialize", "embed_cluster", "joint_trajectory",
                     "full_space_series"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    findings = GATE.Findings()
    for name in cli.bundled_names():
        cfg = load_config(cli.resolve_config(name))
        summary = cli.run_experiment(cfg, tmp_path / name, name)
        assert summary["rows"] > 0
        # every table also agrees with the benchmark's reference, under the
        # benchmark's own per-column tolerances
        text = (tmp_path / name / cfg.table).read_text()
        if name == "propagator_quality":
            GATE.check_stepper_audit(text, cfg.audit["count"], findings)
        else:
            GATE.compare_table(name, text, GATE.load_reference(name), findings)
    assert not findings, findings.messages()


def test_every_public_library_definition_is_reached():
    # a public top-level function or class of src/mflab is named by other
    # library code (as a name, an attribute or an import), or by the
    # benchmark or the package metadata; test-only references belong in
    # tests/oracles.py
    root = Path(__file__).resolve().parents[1]
    defined, named = {}, set()
    for path in sorted((root / "src" / "mflab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    words = {node.id}
                elif isinstance(node, ast.Attribute):
                    words = {node.attr}
                elif isinstance(node, ast.alias):
                    words = {node.name, node.asname}
                else:
                    continue
                named |= words - {own, None}
    for path in [root / "pyproject.toml", *(root / "perfbench").rglob("*.py")]:
        named |= set(re.findall(r"\w+", path.read_text()))
    unreached = sorted(f"{defined[n]}:{n}" for n in defined if n not in named)
    assert not unreached, f"public definitions nothing reaches: {unreached}"


class TestCsvRendering:
    def test_header_mandatory_and_width_checked(self):
        with pytest.raises(ValidationError, match="width"):
            cli.render_csv(["a", "b"], [[1.0]])

    def test_label_with_separator_rejected(self):
        with pytest.raises(ValidationError, match="separator"):
            cli.render_csv(["a"], [["x,y"]])

    def test_cell_formats(self):
        text = cli.render_csv(["a", "b", "c", "d"],
                              [[3, True, math.nan, 0.1]])
        assert text.splitlines()[1] == "3,1,nan,0.10000000000000001"


IMPORT_PROBE = """
import json, sys
import mflab.cli, mflab.analysis, mflab.exact
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_import_weight():
    # A fresh interpreter: test modules import scipy themselves. Only the
    # series oracle and the spectral studies load scipy, when they run.
    src = os.path.dirname(os.path.dirname(mflab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


RUN_PROBE = """
import json, sys
from mflab import cli
for name in sys.argv[2:]:
    assert cli.main(["run", name, "--out", sys.argv[1]]) == 0, name
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_common_runs_load_no_scipy(tmp_path):
    # convergence, entanglement, definetti and decay runs need numpy only
    src = os.path.dirname(os.path.dirname(mflab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    names = ["qubit_convergence", "bell_pair_protection",
             "definetti_two_atom", "field_coherent"]
    out = subprocess.run([sys.executable, "-c", RUN_PROBE, str(tmp_path)]
                         + names, env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_channel_moments_run_past_the_dense_cutoff(tmp_path):
    # the channel moment and its bound are local contractions, so the
    # bundled check runs far beyond 2^12 reservoir dimensions
    text = cli.resolve_config("bell_channel_moments").read_text().replace(
        "m_list: [3, 4, 5, 6, 7, 8]", "m_list: [3, 16, 64]")
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "exp" / "channel_bound.csv").read_text()
    rows = [row.split(",") for row in rows.splitlines()[1:]]
    assert [r[2] for r in rows] == ["3", "16", "64"]
    assert all(r[-1] == "1" for r in rows)


CHANNEL_RESERVOIR = """reservoir:
  kind: channel
  site_state: zero
"""


@pytest.mark.parametrize("name,edits,key", [
    ("bell_channel_moments",
     [("m_list: [3, 4, 5, 6, 7, 8]", "m_list: [1, 3]")], "checks[0].m_list"),
    ("dyson_ratio",
     [("reservoir:\n  kind: product\n  site_state: plus\n", CHANNEL_RESERVOIR),
      ("m_count: 2", "m_count: 1")], "checks[0].m_count")])
def test_validate_checks_every_moment_check_size(tmp_path, capsys, name, edits,
                                                 key):
    # a correlation block of two sites does not fit on one site; the check's
    # sizes are refused at validate time, not at run time
    text = cli.resolve_config(name).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert key in err and "correlation length 2" in err


@pytest.mark.parametrize("name,old,new,key", [
    ("moments_product_qubit", "times: [0.3, 0.9]", "times: [0.3, 0.9, 1.5]",
     "checks[0].times"),
    ("dyson_ratio", "ratio_window: [24.0, 40.0]",
     "ratio_window: [24.0, 40.0, 1.0]", "checks[0].ratio_window"),
    ("oscillator_coherent", "times: [0.25, 0.5, 0.75, 1.0]",
     "times: [0.25, 0.5, 0.75, 1.0, 1.25]", "checks[0].times")],
    ids=["pair_factorization.times", "series_ratio.ratio_window",
         "moment_bound.times"])
def test_validate_refuses_check_lists_of_the_wrong_length(tmp_path, capsys,
                                                          name, old, new, key):
    # a pair check takes two times, a ratio window two bounds and a moment
    # bound one time per order; an extra entry is a typo, not ignored
    text = cli.resolve_config(name).read_text()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new, 1))
    assert cli.main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and "expected a list of" in err


@pytest.mark.parametrize("base,edits,key,words", [
    ("oscillator_scattering", [("levels: 6", "levels: 3"),
                               ("site_state:\n    fock: 1", "site_state: plus")],
     "reservoir.site_state", "dims (3,) do not multiply to matrix size 2"),
    (None, [("site_state: plus", "site_state: {ket: [1, 0, 0]}")],
     "reservoir.site_state.ket", "dims (2,) do not multiply to matrix size 3"),
    (None, [("initial_state: zero",
             "initial_state: {matrix: [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}")],
     "initial_state.matrix", "dims (2,) do not multiply to matrix size 3"),
    ("bell_channel_moments",
     [("hamiltonian: pauli_z\n    interaction: pauli_x",
       "oscillator: {levels: 3}"), ("site_state: zero", "site_state: {fock: 0}")],
     "reservoir", "Kraus operator shape (4, 4) does not match block dim 9"),
    ("cluster_pair", [("hamiltonian: pauli_z\n    interaction:",
                       "hamiltonian: [[1, 0, 0], [0, 0, 0], [0, 0, -1]]\n"
                       "    interaction:")],
     "model.site", "interaction 0 has dims (4,), site has dim 3"),
    ("cluster_pair", [("m_list: [2, 3, 4, 6]", "m_list: [1, 2]")],
     "run.m_list", "interaction 0 acts on 2 sites, more than the site count 1"),
    (None, [("coupling: pauli_x}", "coupling: pauli_x, interaction_index: 1}")],
     "model.system", "coupling 0 references site interaction 1, site has 1"),
    (None, [("interaction: pauli_x}", "}")],
     "model.system", "coupling 0 references site interaction 0, site has 0"),
    ("moments_product_qubit", [("    interaction: pauli_x\n", "")],
     "model.site", "site has no interaction operator")],
    ids=["named-ket-on-qutrit", "ket-length", "matrix-dim",
         "bell-channel-on-qutrit", "cluster-operator-dim",
         "m-below-cluster-size", "interaction-index", "site-without-interaction",
         "moments-site-without-interaction"])
def test_validate_refuses_through_the_run_constructors(tmp_path, capsys, base,
                                                       edits, key, words):
    # the state, ensemble and run constructors own these rules; validate
    # reports their refusal under the key path at fault
    text = (SMALL_CONVERGENCE if base is None
            else cli.resolve_config(base).read_text())
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"exp.yaml.{key}: {words}" in err


@pytest.mark.parametrize("name,old,new,key", [
    ("bell_channel_moments",
     "kind: channel\n  site_state: zero\nchecks:\n  - check: factorization\n"
     "    m_list: [3, 4, 5, 6, 7, 8]\n    times: [0.3, 0.9]",
     "kind: product\n  site_state: zero\nchecks:\n  - check: factorization\n"
     "    m_list: [3, 4, 5, 6, 7, 8]\n    times: [0.3, 0.9, 1.5]",
     "checks[0].times"),
    ("bell_channel_moments", "check: factorization",
     "check: pair_factorization", "checks[0].check"),
    ("moments_product_qubit", "check: factorization",
     "check: correlated_bound", "checks[0].check"),
    ("cluster_pair", "    coupling: pauli_x\n", "", "model.system"),
    ("stark_halfline", "levels: 3\n  n_grid: 1600", "levels: 100\n  n_grid: 64",
     "problem.levels"),
    ("stark_halfline", "slope: 1.0", "slope: -1.0", "problem.slope"),
    ("stark_halfline", "n_grid: 1600", "n_grid: 32", "problem.n_grid"),
    ("well_localization", "x_max: 12.0", "x_max: 1.0e+300", "problem"),
    ("well_localization", "x_max: 12.0\n  n_grid: 1200\n  width: 1.0",
     "x_max: 1.0e-300\n  n_grid: 1200\n  width: 1.0e-301", "problem"),
    ("well_localization", "x_max: 12.0", "x_max: -1.0", "problem.x_max"),
    ("well_localization", "n_grid: 1200", "n_grid: 32", "problem.n_grid"),
    ("well_localization", "[1.5, 5.0, 30.0]", "[1.5, -5.0, 30.0]",
     "problem.depths"),
    ("well_localization", "width: 1.0", "width: 12.0", "problem"),
    ("field_coherent", "scale: 1.0", "scale: 1.0e+300", "overlap"),
    ("field_coherent", "scale: 1.0", "scale: 0.0", "overlap.scale"),
    ("field_coherent", "r_max: 40.0", "r_max: 0.0", "overlap.r_max"),
    ("field_scattering_decay", "halfwidth: 2.0", "halfwidth: -2.0",
     "overlap.halfwidth"),
    ("field_scattering_decay", "r_max: 6.0", "r_max: 4.0", "overlap"),
    ("field_scattering_decay", "100.0]", "1.0e+300]", "overlap.times"),
    ("moments_product_qubit", "max_order: 10", "max_order: 76",
     "checks[1].max_order"),
    ("moments_product_qubit", "    interaction: pauli_x\n", "", "model.site"),
    ("cluster_pair", "    coupling: pauli_x\n",
     "    coupling: pauli_x\n    interaction_index: 3\n", "model.system"),
    ("moments_product_qubit", "    interaction: pauli_x\n", PAIR_INTERACTION,
     "model.site"),
    ("oscillator_scattering", "interaction: field\n",
     "interaction: field\n      strength: 7.5\n", "model.site.oscillator"),
    ("dyson_ratio", "order: 4", "order: 5", "checks[0].order"),
    ("qubit_convergence", "initial_state: zero",
     "initial_state: {ket: [0, 0]}", "initial_state.ket"),
    ("moments_product_qubit", "checks:\n", SERIES_CHECK, "checks[0]"),
    ("oscillator_coherent", "site_state:\n    coherent: 0.5",
     "site_state: {fock: 1}", "checks[0]")],
    ids=["correlated-bound-without-block", "pair-factorization-with-block",
         "correlated-bound-name",
         "cluster-without-coupling", "stark-levels-above-grid-points",
         "stark-slope", "stark-grid", "well-spacing-overflows",
         "well-spacing-underflows", "well-x-max", "well-grid", "well-depth",
         "well-width", "gaussian-norm-overflows", "gaussian-scale",
         "gaussian-r-max", "bump-halfwidth", "bump-past-r-max",
         "decay-time-past-float-range",
         "supermultiplicative-past-float-range",
         "moments-site-without-interaction", "cluster-interaction-index",
         "moments-with-cluster", "field-oscillator-strength",
         "series-order", "zero-ket", "series-without-system",
         "moment-bound-without-coherent-state"])
def test_validate_refuses_what_run_refuses(tmp_path, capsys, name, old, new,
                                           key):
    text = cli.resolve_config(name).read_text()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new, 1))
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(verb) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"exp.yaml.{key}: " in err
        assert not [str(w.message) for w in caught]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,old,new,message", [
    ("cluster_pair", "reservoir:\n",
     f"  cluster: {{size: 2, operator: {PAIR_FLIP}}}\nreservoir:\n",
     "exp.yaml.model: unknown key(s) 'cluster'"),
    ("bell_channel_moments", "  site_state: zero\n",
     "  site_state: zero\n  corr_length: 2\n",
     "exp.yaml.reservoir: unknown key(s) 'corr_length'"),
    ("bell_channel_moments", "  site_state: zero\n",
     "  site_state: zero\n  channel: bell\n",
     "exp.yaml.reservoir: unknown key(s) 'channel'")],
    ids=["model.cluster", "reservoir.corr_length", "reservoir.channel"])
def test_keys_the_operators_imply_are_unknown(tmp_path, capsys, name, old, new,
                                              message):
    # an interaction's site count is read from its matrix size, and
    # kind: channel is the Bell channel on two sites, so none is a key
    text = cli.resolve_config(name).read_text()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new, 1))
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert cli.main(verb) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(f": {message}\n")


@pytest.mark.parametrize("name", ["dyson_ratio", "qubit_convergence",
                                  "bell_pair_protection", "definetti_two_atom"])
@pytest.mark.parametrize("pattern,message", [
    (r"\n *coupling: pauli_x|, coupling: pauli_x",
     "exp.yaml.model.system: needs a coupling"),
    (r"\ninitial_state: .*",
     "exp.yaml: missing required key 'initial_state'")],
    ids=["coupling", "initial-state"])
def test_every_system_needs_a_coupling_and_an_initial_state(
        tmp_path, capsys, name, pattern, message):
    # one rule in every kind that reads a model.system, moments included
    text, count = re.subn(pattern, "", cli.resolve_config(name).read_text())
    assert count
    cfg = write_config(tmp_path, text)
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert cli.main(verb) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(f": {message}\n")


FACTORIZATION = """
kind: moments
model:
  site: {hamiltonian: pauli_z, interaction: [[0.5, 1], [1, -0.5]]}
reservoir: RESERVOIR
checks:
  - {check: factorization, m_list: [2, 5], times: TIMES}
outputs: {table: f.csv}
"""


def _pair_error(reservoir, m, site, t1, t2):
    """|sum_c w_c (sum_p f_p cov_p / M + A_1 A_2) - B_1 B_2|: the two-time
    moment of each component's parts against the reference state's means,
    with the evolved interaction formed densely."""
    evals, vecs = np.linalg.eigh(site.h.data)

    def evolved(t):
        u = vecs @ np.diag(np.exp(-1j * evals * t)) @ vecs.conj().T
        return u.conj().T @ site.interactions[0].data @ u

    v1, v2 = evolved(t1), evolved(t2)
    rho = sum(w * s.data for w, s in limit_atoms(reservoir))
    moment = 0.0
    for w, parts, _ in reservoir.components(m):
        a = [sum(n / m * np.trace(s.data @ v) for n, s in parts)
             for v in (v1, v2)]
        cov = sum(n / m * (np.trace(s.data @ v1 @ v2)
                           - np.trace(s.data @ v1) * np.trace(s.data @ v2))
                  for n, s in parts)
        moment += w * (cov / m + a[0] * a[1])
    return abs(moment - np.trace(rho @ v1) * np.trace(rho @ v2))


@pytest.mark.parametrize("reservoir,times,label", [
    ("{kind: product, site_state: plus}", [0.3, 0.9], "pair_factorization"),
    ("{kind: definetti, atoms: [{weight: 0.25, site_state: zero}, "
     "{weight: 0.75, site_state: plus}]}", [0.3, 0.9], "pair_factorization"),
    ("{kind: macroscopic, parts: [{fraction: 0.5, site_state: zero}, "
     "{fraction: 0.5, site_state: minus}]}", [0.3, 0.9], "pair_factorization"),
    ("{kind: channel, site_state: zero}", [0.3, 0.9], "correlated_bound"),
    ("{kind: channel, site_state: plus}", [0.3, 0.9, 1.5], "correlated_bound")],
    ids=["product", "definetti", "macroscopic", "bell-channel",
         "bell-channel-three-times"])
def test_factorization_reference_follows_the_ensemble(tmp_path, reservoir,
                                                      times, label):
    # one check name; each row names the reference it used: the block's size
    # bound, else the exact two-time error of the ensemble's components,
    # which the value matches (M = 5 splits the macroscopic halves 3 + 2)
    text = FACTORIZATION.replace("RESERVOIR", reservoir).replace(
        "TIMES", str(times))
    cfg = load_config(write_config(tmp_path, text))
    cli.run_experiment(cfg, tmp_path / "o", "exp")
    rows = (tmp_path / "o" / "f.csv").read_text().splitlines()[1:]
    rows = [row.split(",") for row in rows]
    assert [r[:4] for r in rows] == [
        [label, "t=" + "|".join(f"{t:g}" for t in times), str(m),
         str(len(times))] for m in (2, 5)]
    for row, m in zip(rows, (2, 5)):
        err, ref, kind = factorization_error(
            MomentRun(cfg.reservoir, m, cfg.site, times, bound=True))
        assert float(row[4]) == err and float(row[5]) == ref and kind == label
        assert row[7] == "1"
        if label == "pair_factorization":
            assert ref == pytest.approx(
                _pair_error(cfg.reservoir, m, cfg.site, *times), rel=1e-12)
            assert float(row[6]) == pytest.approx(1.0, rel=1e-12)


def test_exact_reference_reads_within_until_the_value_cannot_resolve_it(
        tmp_path):
    # the macroscopic halves' exact error falls as 1/M; the value, a
    # difference of O(1) moments, follows it to M = 10^8 and is rounding
    # noise at M = 10^20, where its row reads 0
    text = FACTORIZATION.replace(
        "RESERVOIR", "{kind: macroscopic, parts: [{fraction: 0.5, site_state: "
        "zero}, {fraction: 0.5, site_state: minus}]}").replace(
        "TIMES", "[0.3, 0.9]").replace(
        "m_list: [2, 5]", "m_list: [2, 3, 1000, 100000000, 1" + "0" * 20 + "]")
    cli.run_experiment(load_config(write_config(tmp_path, text)),
                       tmp_path / "o", "exp")
    rows = (tmp_path / "o" / "f.csv").read_text().splitlines()[1:]
    rows = [row.split(",") for row in rows]
    for row in rows[:-1]:
        assert float(row[6]) == pytest.approx(1.0, abs=1e-7) and row[7] == "1"
    value, ref = float(rows[-1][4]), float(rows[-1][5])
    assert value > 100 * ref > 0 and rows[-1][7] == "0"
    # the reference is still the exact 1/M law: 10^12 times the one at 10^8
    assert ref * 1e12 == pytest.approx(float(rows[-2][5]), rel=1e-12)


def test_coherent_initial_state_is_a_ket_of_the_system_dimension(tmp_path,
                                                                 capsys):
    # the qubit system's coherent ket has 2 levels, not the oscillator
    # site's 6; the reservoir's has 6
    text = cli.resolve_config("oscillator_scattering").read_text()
    text = text.replace("initial_state: zero", "initial_state: {coherent: 0.5}")
    text = text.replace("site_state:\n    fock: 1", "site_state: {coherent: 0.5}")
    path = write_config(tmp_path, text)
    cfg = load_config(path)
    for state, dim in ((cfg.initial_state, 2), (cfg.reservoir.site_state, 6)):
        assert np.array_equal(state.data, DensityMatrix.pure(
            coherent_ket(0.5, dim), (dim,)).data)
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "exp" / "convergence.csv").exists()


MIXED_SITE = f"""
kind: entanglement
model:
  system:
    subsystems:
      - {{hamiltonian: pauli_z, coupling: pauli_x}}
      - {{hamiltonian: pauli_z, coupling: pauli_x, interaction_index: 1}}
  site:
    hamiltonian: pauli_z
    interactions: [pauli_x, {PAIR_FLIP}]
reservoir: {{kind: product, site_state: plus}}
initial_state: bell
run: {{m_list: [2, 3, 4], t_max: 1.0, n_times: 21}}
outputs: {{table: negativity.csv}}
"""


def test_site_mixes_one_and_two_site_interactions(tmp_path):
    # each interaction's site count comes from its matrix size, so one site
    # declares a one-site and a two-site interaction, one per subsystem
    cfg = load_config(write_config(tmp_path, MIXED_SITE))
    assert [v.dims for v in cfg.site.interactions] == [(2,), (2, 2)]
    flip = Operator(np.eye(4, dtype=complex)[::-1], (2, 2), hermitian=True)
    site = SiteModel(h=pauli("z"), interactions=(pauli("x"), flip))
    # the runs are what a run propagates, so the Python site's are rebuilt
    python = dataclasses.replace(cfg, site=site, runs=tuple(
        exact.FiniteMRun(cfg.system, site, r.m_count, cfg.reservoir,
                         cfg.initial_state, cfg.grid) for r in cfg.runs))
    tables = []
    for out, c in (("cfg", cfg), ("python", python)):
        summary = cli.run_experiment(c, tmp_path / out, "exp")
        assert summary["rows"] == 21
        tables.append((tmp_path / out / "negativity.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("verb,name,old,new,operation", [
    ("validate", "oscillator_scattering", "n_times: 101",
     "n_times: 10000000000000", "config.parse_config"),
    ("validate", "oscillator_scattering", "levels: 6",
     "levels: 10000000000000", "model.number_op"),
    ("run", "well_localization", "n_grid: 1200", "n_grid: 10000000000000",
     "analysis.bound_state_count")],
    ids=["n_times", "oscillator-levels", "well-grid"])
def test_allocation_failure_is_a_resource_limit(tmp_path, capsys, verb, name,
                                                old, new, operation):
    # each first allocation asks for about 73 TiB, which numpy refuses
    text = cli.resolve_config(name).read_text()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new, 1))
    argv = [verb, str(cfg)] + (["--out", str(tmp_path / "o")]
                               if verb == "run" else [])
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {operation}: Unable to allocate ")


@pytest.mark.parametrize("name,old,key", [
    ("oscillator_scattering", "n_times: 101", "run.n_times"),
    ("field_coherent", "n_times: 101", "overlap.times.n_times"),
    ("oscillator_scattering", "levels: 6", "model.site.oscillator.levels"),
    ("well_localization", "n_grid: 1200", "problem.n_grid"),
    ("stark_halfline", "n_grid: 1600", "problem.n_grid")],
    ids=["n_times", "overlap-n_times", "oscillator-levels", "well-grid",
         "stark-grid"])
def test_sizes_past_numpys_largest_array_are_refused(tmp_path, capsys, name,
                                                     old, key):
    # 3e18 items pass the largest array numpy forms, where it raises
    # ValueError, not MemoryError; the config refuses the size by name
    text = cli.resolve_config(name).read_text()
    assert old in text
    new = old.split(":")[0] + ": 3000000000000000000"
    cfg = write_config(tmp_path, text.replace(old, new, 1))
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert cli.main(verb) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: config.parse_config: exp.yaml.{key}: "
                              f"3000000000000000000 forms an array of ")
        assert err.endswith(f"bytes, past numpy's largest of {sys.maxsize}\n")
    assert not (tmp_path / "o").exists()


def test_audit_substeps_past_the_limit_cap_are_refused(tmp_path, capsys):
    # each draw steps 32 x substeps per interval in its finest pass: 2048
    # reaches the limit propagator's cap of 65536 and is admitted
    text = cli.resolve_config("propagator_quality").read_text()
    assert "substeps: 48" in text
    cfg = write_config(tmp_path, text.replace("substeps: 48", "substeps: 2048"))
    assert cli.main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    for substeps in (2049, 1000000000):
        cfg = write_config(tmp_path, text.replace("substeps: 48",
                                                  f"substeps: {substeps}"))
        for verb in (["validate", str(cfg)],
                     ["run", str(cfg), "--out", str(tmp_path / "o")]):
            assert cli.main(verb) == 4
            err = capsys.readouterr().err
            assert err == (f"error: config.parse_config: exp.yaml.stepper_"
                           f"audit.substeps: the finest audit pass, 32 x "
                           f"{substeps} substeps, exceeds the cap of 65536\n")
    assert not (tmp_path / "o").exists()


def test_macroscopic_counts_at_an_m_past_int64_still_run(tmp_path, capsys):
    # 10^20 sites split in exact integers; the counts no longer wrap
    text = FACTORIZATION.replace(
        "RESERVOIR", "{kind: macroscopic, parts: [{fraction: 0.5, site_state: "
        "zero}, {fraction: 0.5, site_state: minus}]}").replace(
        "TIMES", "[0.3, 0.9]").replace("m_list: [2, 5]",
                                        "m_list: [2, 1" + "0" * 20 + "]")
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "o" / "exp" / "f.csv").read_text().splitlines()
    assert rows[2].split(",")[2] == "1" + "0" * 20


@pytest.mark.parametrize("name,key", [
    ("moments_product_qubit", "checks[0].m_list"),
    ("oscillator_coherent", "checks[0].m_list"),
    ("bell_channel_moments", "checks[0].m_list")])
def test_moment_checks_refuse_an_m_past_the_float_range(tmp_path, capsys,
                                                        name, key):
    # the falling-factorial weights and the normalisation M^n are floats
    text = cli.resolve_config(name).read_text()
    text, count = re.subn(r"m_list: \[[0-9, ]*\]", "m_list: [1" + "0" * 160
                          + "]", text, count=1)
    assert count == 1
    cfg = write_config(tmp_path, text)
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert cli.main(verb) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"exp.yaml.{key}: M = 1" in err
        assert "past the float range" in err


def test_an_m_whose_power_is_a_float_still_runs(tmp_path):
    # 1e150 squared is 1e300: the two-time checks run at that M
    for name in ("moments_product_qubit", "bell_channel_moments"):
        text = re.sub(r"m_list: \[[0-9, ]*\]", "m_list: [1" + "0" * 150 + "]",
                      cli.resolve_config(name).read_text(), count=1)
        cfg = write_config(tmp_path, text, name=f"{name}.yaml")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_long_moment_time_lists_are_refused_before_any_work(tmp_path,
                                                           capsys):
    # the 7-time bound at M = 8 visits 8^7 tuples x 7 placements; counted
    # first, it is refused at once instead of running for minutes
    text = cli.resolve_config("bell_channel_moments").read_text().replace(
        "m_list: [3, 4, 5, 6, 7, 8]", "m_list: [8]").replace(
        "times: [0.3, 0.9]", "times: [0.3, 0.9, 0.2, 0.5, 0.7, 1.1, 0.4]")
    cfg = write_config(tmp_path, text)
    # validate counts the same work as the run, so both refuse it
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        started = time.perf_counter()
        assert cli.main(verb) == 4
        assert time.perf_counter() - started < 0.1
        err = capsys.readouterr().err
        assert err == ("error: config.parse_config: exp.yaml.checks[0]."
                       "m_list: the 7-time bound's tuple placements visit "
                       "14680064 cases, past the cap of 100000\n")
    assert not (tmp_path / "o").exists()


SEVEN_TIMES = "times: [0.3, 0.9, 0.2, 0.5, 0.7, 1.1, 0.4]"


@pytest.mark.parametrize("base,edits,key,words", [
    ("qubit_convergence", [("m_list: [1, 2, 4, 8]", "m_list: [1, 5000]")],
     "run.m_list", "part sizes (5000,) with shift 0"),
    ("macroscopic_two_part", [("m_list: [2, 4, 8]", "m_list: [2, 700]")],
     "run.m_list", "part sizes (467, 233) with shift 0"),
    (None, [("site_state: plus", "site_state: {matrix: [[0.8, 0], [0, 0.2]]}"),
            ("m_list: [1, 2]", "m_list: [1, 1000000]")],
     "run.m_list", "part sizes (1000000,) with shift 0"),
    ("dyson_ratio", [("m_count: 2", "m_count: 3000")], "checks[0].m_count",
     "part sizes (3000,) with shift 0"),
    ("dyson_ratio", [("m_count: 2", "m_count: 1000")], "checks[0].m_count",
     "block dimension 10010 = (order 4 + 1) x 2002 > 4096"),
    ("bell_channel_moments", [("m_list: [3, 4, 5, 6, 7, 8]", "m_list: [8]"),
                              ("times: [0.3, 0.9]", SEVEN_TIMES)],
     "checks[0].m_list", "tuple placements visit 14680064 cases"),
    ("propagator_quality", [("count: 20", "count: 1000000000")],
     "stepper_audit.count",
     "1000000000 draws of 35 x 48 substeps step 1680000000000, past the "
     "cap of 16777216")],
    ids=["sector-work", "macroscopic-sector-work", "rank2-at-a-million",
         "series-sector-work", "series-block", "moment-work", "audit-count"])
def test_validate_refuses_resource_limits_the_run_would_hit(
        tmp_path, capsys, base, edits, key, words):
    # the run's constructors and work counts refuse these while the config
    # is read, so both verbs exit 4 with the same line, before any work
    text = (SMALL_CONVERGENCE if base is None
            else cli.resolve_config(base).read_text())
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    cfg = write_config(tmp_path, text)
    lines = []
    for verb in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", str(tmp_path / "o")]):
        started = time.perf_counter()
        assert cli.main(verb) == 4
        assert time.perf_counter() - started < 0.1
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] and lines[0].count("\n") == 1
    assert lines[0].startswith(f"error: config.parse_config: exp.yaml.{key}: ")
    assert words in lines[0]
    assert not (tmp_path / "o").exists()


def test_moment_work_within_the_cap_runs_from_both_verbs(tmp_path):
    # 4 times at M = 8 place 8^4 tuples x 7 placements = 28672, inside the cap
    text = cli.resolve_config("bell_channel_moments").read_text().replace(
        "m_list: [3, 4, 5, 6, 7, 8]", "m_list: [8]").replace(
        "times: [0.3, 0.9]", "times: [0.3, 0.9, 0.2, 0.5]")
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_unusable_output_directory_is_refused_before_the_run(tmp_path, capsys,
                                                             monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(analysis, "sweep", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["run", "qubit_convergence", "--out",
                     str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: cli.run_experiment: cannot create output "
                          f"directory {blocker / 'out' / 'qubit_convergence'}")


# Every kind but the propagation ones. There a huge t_max or a tiny
# step_target only drives the adaptive limit stepper to its 2**16-substep
# cap, seconds per case, before a clean ToleranceError; a 186-case sweep of
# them under a 4 s cap found no crash.
_STATIC_CONFIGS = ("well_localization", "stark_halfline", "field_coherent",
                   "field_scattering_decay", "bell_channel_moments",
                   "dyson_ratio", "moments_product_qubit",
                   "oscillator_coherent", "propagator_quality")
_EXTREMES = (0, -1, 5e-324, 1e-300, 1e-12, 1e-7, 1e12, 1e300, -1e300)


@pytest.mark.parametrize("name", _STATIC_CONFIGS)
def test_extreme_values_keep_validate_and_run_in_agreement(tmp_path, capsys,
                                                           name):
    # one numeric leaf at a time set to each extreme (integer leaves to the
    # integral ones up to 1e6): validate refuses exactly what run refuses,
    # a run it accepts ends in a result or a tolerance or resource refusal,
    # every refusal is one diagnostic line, and no numpy warning escapes
    import yaml
    doc = yaml.safe_load(cli.resolve_config(name).read_text())
    cfg, broken = tmp_path / "exp.yaml", []
    for path in list(_node_paths(doc)):
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        old = parent[path[-1]]
        if isinstance(old, bool) or not isinstance(old, (int, float)):
            continue
        for value in _EXTREMES:
            if isinstance(old, int):
                if not (float(value).is_integer() and abs(value) <= 1e6):
                    continue
                value = int(value)
            parent[path[-1]] = value if isinstance(old, int) else float(value)
            cfg.write_text(yaml.safe_dump(doc))
            parent[path[-1]] = old
            case = f"{'.'.join(map(str, path))} = {value!r}"
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    codes = (cli.main(["validate", str(cfg)]),
                             cli.main(["run", str(cfg), "--out",
                                       str(tmp_path / "o")]))
            except Exception as exc:
                broken.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if caught:
                broken.append(f"{case}: warning {caught[0].message}")
            elif codes not in {(0, 0), (0, 3), (0, 4), (2, 2)}:
                broken.append(f"{case}: validate, run exit {codes}: {err}")
            elif err.count("\n") > sum(c != 0 for c in codes):
                broken.append(f"{case}: more than one line per refusal")
    assert not broken, "\n".join(broken)


def _node_paths(node, path=()):
    if path:
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, child in items:
        yield from _node_paths(child, path + (k,))


_DELETE = object()
_REPLACEMENTS = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-2, 12),
    st.floats(), st.text(max_size=6),
    st.sampled_from(["pauli_x", "zero", "plus", "bell", "product", "channel",
                     "definetti", "correlated_bound", "pair_factorization",
                     "series_ratio", "moments", "convergence", "entanglement"]),
    st.lists(st.integers(-1, 3), max_size=4),
    st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.dictionaries(st.sampled_from(["ket", "matrix", "fock", "bogus"]),
                    st.integers(0, 3), max_size=2),
    st.just({"coherent": 0.5}), st.just(3000000000000000000))


_HUGE = 3000000000000000000


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(cli.bundled_names()),
       pick=st.integers(min_value=0), value=_REPLACEMENTS)
@example(name="oscillator_scattering", pick=("initial_state",),
         value={"coherent": 0.5})
@example(name="oscillator_scattering", pick=("run", "n_times"), value=_HUGE)
@example(name="oscillator_scattering",
         pick=("model", "site", "oscillator", "levels"), value=_HUGE)
@example(name="field_coherent", pick=("overlap", "times", "n_times"),
         value=_HUGE)
@example(name="well_localization", pick=("problem", "n_grid"), value=_HUGE)
def test_mutated_bundled_configs_raise_only_config_errors(name, pick, value):
    # pick is a node path, or an index into the config's node paths
    import yaml
    doc = yaml.safe_load(cli.resolve_config(name).read_text())
    paths = list(_node_paths(doc))
    path = pick if isinstance(pick, tuple) else paths[pick % len(paths)]
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    # exactly the refusals cli.main reports as a bad config (exit 2) or a
    # resource limit (exit 4), each naming its key but numpy's own
    try:
        parse_config(doc, where=name)
    except (MFLabError, MemoryError) as exc:
        assert cli._exit_code(exc) in (2, 4), exc
        assert isinstance(exc, MemoryError) or str(exc).startswith(name), exc


def test_yaml_loaders_agree_on_every_bundled_config():
    import yaml
    from mflab import config
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    assert config._YAML_LOADER is yaml.CSafeLoader
    assert issubclass(config._StrictLoader, yaml.CSafeLoader)
    for name in cli.bundled_names():
        text = cli.resolve_config(name).read_text()
        assert (yaml.load(text, Loader=config._StrictLoader)
                == yaml.load(text, Loader=yaml.SafeLoader)), name
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError):
            yaml.load("kind: [unclosed", Loader=loader)


def test_module_entry_point_lists_the_catalog():
    src = os.path.dirname(os.path.dirname(mflab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "mflab", "list"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for name in cli.bundled_names():
        assert name in out.stdout
